//! A shared, monotonically advancing virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{SimDuration, SimTime};

/// The timeline would pass `u64::MAX` nanoseconds (~584 virtual years).
///
/// Returned by [`Clock::try_advance_by`]; the clock itself saturates at
/// the maximum instant instead of wrapping backwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockOverflow {
    /// The instant the clock held when the overflowing charge arrived.
    pub at: SimTime,
    /// The charge that could not be represented.
    pub charge: SimDuration,
}

impl std::fmt::Display for ClockOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "virtual clock overflow: {} + {} exceeds the timeline",
            self.at, self.charge
        )
    }
}

impl std::error::Error for ClockOverflow {}

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
    /// years is a bug upstream. Use [`Clock::try_advance_by`] to handle
    /// the overflow as a value instead.
    pub fn advance_by(&self, d: SimDuration) -> SimTime {
        match self.try_advance_by(d) {
            Ok(t) => t,
            Err(e) => {
                debug_assert!(false, "{e}");
                SimTime::from_nanos(u64::MAX)
            }
        }
    }

    /// Advances the clock by `d`, saturating at the maximum instant;
    /// reports an overflowing charge as a typed [`ClockOverflow`]
    /// instead of wrapping the timeline backwards.
    pub fn try_advance_by(&self, d: SimDuration) -> Result<SimTime, ClockOverflow> {
        let prev = self
            .now_nanos
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                Some(n.saturating_add(d.as_nanos()))
            })
            .expect("fetch_update closure never returns None");
        match prev.checked_add(d.as_nanos()) {
            Some(n) => Ok(SimTime::from_nanos(n)),
            None => Err(ClockOverflow {
                at: SimTime::from_nanos(prev),
                charge: d,
            }),
        }
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

    /// Number of live handles (clones) sharing this timeline.
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.now_nanos)
    }

    /// Resets the clock to the origin. Only intended for test harnesses
    /// that reuse a context between runs.
    ///
    /// # Contract
    ///
    /// The caller must hold the *only* handle to the timeline: daemon
    /// workers, repackers, or clients still holding clones would observe
    /// time rewinding under their in-flight spans, producing negative
    /// durations and corrupt traces. A debug assertion enforces this;
    /// use [`Clock::try_reset`] to make the check a runtime decision.
    pub fn reset(&self) {
        debug_assert_eq!(
            self.handles(),
            1,
            "Clock::reset while {} other handle(s) share the timeline — \
             join daemon threads (drop their SimContext clones) \
             before reusing a harness clock",
            self.handles() - 1
        );
        self.now_nanos.store(0, Ordering::SeqCst);
    }

    /// Resets the clock to the origin only when this is the sole handle
    /// to the timeline; returns whether the reset happened.
    pub fn try_reset(&self) -> bool {
        if self.handles() == 1 {
            self.now_nanos.store(0, Ordering::SeqCst);
            true
        } else {
            false
        }
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
    fn reset_returns_to_origin() {
        let c = Clock::new();
        c.advance_by(SimDuration::from_secs(2));
        c.reset();
        assert_eq!(c.now(), SimTime::ZERO);
    }

    #[test]
    fn try_reset_refuses_shared_timelines() {
        let a = Clock::new();
        a.advance_by(SimDuration::from_secs(1));
        let b = a.clone();
        assert_eq!(a.handles(), 2);
        assert!(!a.try_reset(), "live clone must block the rewind");
        assert_eq!(b.now().as_secs_f64(), 1.0);
        drop(b);
        assert!(a.try_reset());
        assert_eq!(a.now(), SimTime::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "other handle(s) share the timeline")]
    fn reset_with_live_clones_trips_the_debug_assertion() {
        let a = Clock::new();
        let _b = a.clone();
        a.reset();
    }

    #[test]
    fn overflow_saturates_instead_of_wrapping() {
        let c = Clock::new();
        c.advance_by(SimDuration::from_nanos(u64::MAX - 10));
        let err = c
            .try_advance_by(SimDuration::from_nanos(100))
            .expect_err("charge past u64::MAX must be reported");
        assert_eq!(err.at.as_nanos(), u64::MAX - 10);
        assert_eq!(err.charge, SimDuration::from_nanos(100));
        // The timeline pinned at the maximum instant — never backwards.
        assert_eq!(c.now().as_nanos(), u64::MAX);
        assert!(c.try_advance_by(SimDuration::from_nanos(1)).is_err());
        assert_eq!(c.now().as_nanos(), u64::MAX);
        assert!(err.to_string().contains("overflow"));
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
