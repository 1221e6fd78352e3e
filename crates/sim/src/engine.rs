//! The discrete-event engine, built on the [`PlanQueue`].
//!
//! The end-to-end experiments (Figs. 14–16) and the multi-daemon fleet
//! harness interleave compute phases, asynchronous checkpoint pulls,
//! and policy decisions on one virtual timeline. [`Engine`] provides
//! the event loop: events are closures scheduled at absolute instants
//! on a [`PlanQueue`]; popping an event advances the engine clock to
//! its timestamp. Ordering is deterministic — `(instant, plan id)` —
//! so two runs that make the same schedule calls execute events in
//! exactly the same order.
//!
//! Beyond the classic loop the engine carries the two run-wide
//! services the fleet plane uses:
//!
//! * **seeded randomness** ([`Engine::with_seed`], [`Engine::fork_rng`]):
//!   each actor draws from its own child stream of the run's seed, so
//!   stochastic runs replay bit-for-bit;
//! * **per-actor local time** ([`Engine::add_actor`],
//!   [`Engine::advance_actor_to`]): each daemon or training client keeps
//!   its own cursor on the shared timeline, moved forward to the end of
//!   its latest [`crate::Resource`] grant, so operations running on
//!   *different* actors overlap (both finish at `max`, not `sum`, of
//!   their durations).

use crate::plan::{PlanId, PlanQueue};
use crate::rng::SimRng;
use crate::SimTime;

type EventFn = Box<dyn FnOnce(&mut Engine)>;

/// Identifies one actor registered with [`Engine::add_actor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(usize);

/// A single-threaded discrete-event simulator.
///
/// # Examples
///
/// ```
/// use portus_sim::{Engine, SimDuration, SimTime};
///
/// let mut eng = Engine::new();
/// eng.schedule_at(SimTime::ZERO + SimDuration::from_secs(2), |e| {
///     let at = e.now() + SimDuration::from_secs(1);
///     e.schedule_at(at, |_| {});
/// });
/// eng.run();
/// assert_eq!(eng.now().as_secs_f64(), 3.0);
/// ```
pub struct Engine {
    now: SimTime,
    queue: PlanQueue<EventFn>,
    rng: SimRng,
    /// Each actor's local-time cursor, indexed by [`ActorId`].
    actors: Vec<SimTime>,
    events_run: u64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::with_seed(0)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("events_run", &self.events_run)
            .field("actors", &self.actors.len())
            .finish()
    }
}

impl Engine {
    /// Creates an engine at the timeline origin with no pending events
    /// and seed 0.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Creates an engine whose random stream is seeded with `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: PlanQueue::new(),
            rng: SimRng::new(seed),
            actors: Vec::new(),
            events_run: 0,
        }
    }

    /// The engine's current instant (the timestamp of the last event run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events executed so far.
    pub fn events_run(&self) -> u64 {
        self.events_run
    }

    /// An independent child stream keyed by `label` (see
    /// [`SimRng::fork`]); use one per actor so draws never interleave.
    pub fn fork_rng(&self, label: u64) -> SimRng {
        self.rng.fork(label)
    }

    // --- actors -----------------------------------------------------

    /// Registers an actor with its own local-time cursor (starting at
    /// the origin) and returns its id.
    pub fn add_actor(&mut self) -> ActorId {
        self.actors.push(SimTime::ZERO);
        ActorId(self.actors.len() - 1)
    }

    /// The actor's local-time cursor: when its last charged operation
    /// completes.
    pub fn actor_now(&self, actor: ActorId) -> SimTime {
        self.actors[actor.0]
    }

    /// Moves `actor`'s cursor to `t` if `t` is later (e.g. after a
    /// grant on a shared [`crate::Resource`] ends at `t`). Returns the
    /// cursor.
    pub fn advance_actor_to(&mut self, actor: ActorId, t: SimTime) -> SimTime {
        let a = &mut self.actors[actor.0];
        *a = (*a).max(t);
        *a
    }

    // --- scheduling -------------------------------------------------

    /// Schedules `f` to run at absolute instant `at`; returns the plan
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the engine's current instant
    /// (events cannot run in the past).
    pub fn schedule_at<F: FnOnce(&mut Engine) + 'static>(&mut self, at: SimTime, f: F) -> PlanId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: {at} < {}",
            self.now
        );
        self.queue.add(at, Box::new(f))
    }

    // --- the loop ---------------------------------------------------

    /// Runs a single event if one is pending; returns whether it did.
    pub fn step(&mut self) -> bool {
        let Some((at, _, run)) = self.queue.pop() else {
            return false;
        };
        self.now = at;
        self.events_run += 1;
        run(self);
        true
    }

    /// Runs events until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn events_run_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut eng = Engine::new();
        for (tag, at_ms) in [("b", 20u64), ("a", 10), ("c", 30)] {
            let order = order.clone();
            eng.schedule_at(SimTime::ZERO + SimDuration::from_millis(at_ms), move |_| {
                order.borrow_mut().push(tag);
            });
        }
        eng.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(eng.now().as_nanos(), 30_000_000);
        assert_eq!(eng.events_run(), 3);
    }

    #[test]
    fn same_time_events_pop_in_plan_id_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut eng = Engine::new();
        for tag in ["first", "second", "third"] {
            let order = order.clone();
            eng.schedule_at(SimTime::ZERO, move |_| order.borrow_mut().push(tag));
        }
        eng.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let hits = Rc::new(RefCell::new(0u32));
        let mut eng = Engine::new();
        let h = hits.clone();
        eng.schedule_at(secs(1), move |e| {
            *h.borrow_mut() += 1;
            let h2 = h.clone();
            let at = e.now() + SimDuration::from_secs(1);
            e.schedule_at(at, move |_| {
                *h2.borrow_mut() += 1;
            });
        });
        eng.run();
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(eng.now().as_secs_f64(), 2.0);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut eng = Engine::new();
        eng.schedule_at(secs(1), |e| {
            e.schedule_at(SimTime::ZERO, |_| {});
        });
        eng.run();
    }

    #[test]
    fn actors_keep_local_time() {
        let mut eng = Engine::new();
        let a = eng.add_actor();
        let b = eng.add_actor();
        assert_ne!(a, b);
        // Each actor's cursor moves on its own: a grant ending at 5 s
        // on `a` leaves `b` at the origin.
        assert_eq!(eng.advance_actor_to(a, secs(5)), secs(5));
        assert_eq!(eng.actor_now(b), SimTime::ZERO);
        // advance_actor_to is monotone.
        assert_eq!(eng.advance_actor_to(a, secs(2)), secs(5));
        assert_eq!(eng.advance_actor_to(b, secs(3)), secs(3));
        assert_eq!(eng.actor_now(a), secs(5));
    }

    #[test]
    fn forked_streams_replay_per_seed_and_label() {
        let draws = |seed: u64, label: u64| -> Vec<u64> {
            let mut r = Engine::with_seed(seed).fork_rng(label);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draws(11, 1), draws(11, 1));
        assert_ne!(draws(11, 1), draws(11, 2), "labels give distinct streams");
        assert_ne!(draws(11, 1), draws(12, 1), "seeds give distinct streams");
    }
}
