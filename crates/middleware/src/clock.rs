//! Clock abstraction: wall-clock and virtual drivability.
//!
//! [`crate::BoincServer`] is a pure state machine over [`SimTime`]: every
//! entry point takes `now` explicitly, so the *caller* decides what a clock
//! is. The discrete-event simulator feeds it event-queue timestamps; a real
//! runtime feeds it wall-clock readings through [`WallClock`]; and the
//! deterministic-simulation harness (`vc-runtime::sim`) feeds it a
//! [`VirtualClock`] whose time only advances when the simulation says so.
//! The [`Clock`] trait is the seam: code written against it (the
//! `vc-runtime` coordinator, the checkpoint timer) runs unmodified on
//! either substrate.

use crate::event::WakeupQueue;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;
use vc_simnet::SimTime;

/// A source of `now` readings on the [`SimTime`] axis.
///
/// Implementations must be monotone: successive [`Clock::now`] readings
/// never decrease. Beyond that the trait is silent about *what* drives the
/// clock — real time ([`WallClock`]) or an event queue ([`VirtualClock`]).
pub trait Clock {
    /// The current reading, suitable for every `now` parameter of
    /// [`crate::BoincServer`].
    fn now(&self) -> SimTime;

    /// Seconds elapsed since the clock started (excluding any resume
    /// offset) — the time *this run* has consumed.
    fn elapsed_s(&self) -> f64;
}

/// Maps real elapsed time onto the [`SimTime`] axis the middleware's
/// deadlines and metrics are expressed in.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
    /// Seconds already on the clock when this process started (non-zero
    /// when resuming from a checkpoint, so reported times stay cumulative).
    offset_s: f64,
}

impl WallClock {
    /// Starts a clock at `SimTime::ZERO`.
    pub fn start() -> Self {
        WallClock {
            start: Instant::now(),
            offset_s: 0.0,
        }
    }

    /// Starts a clock that already shows `offset_s` seconds elapsed.
    pub fn resumed_at(offset_s: f64) -> Self {
        assert!(
            offset_s.is_finite() && offset_s >= 0.0,
            "invalid clock offset {offset_s}"
        );
        WallClock {
            start: Instant::now(),
            offset_s,
        }
    }

    /// The current reading (inherent form, so callers need not import
    /// [`Clock`]).
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.offset_s + self.start.elapsed().as_secs_f64())
    }

    /// Seconds elapsed since [`WallClock::start`] (excluding any resume
    /// offset) — the wall time *this process* has spent.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        WallClock::now(self)
    }

    fn elapsed_s(&self) -> f64 {
        WallClock::elapsed_s(self)
    }
}

struct VirtualInner {
    queue: WakeupQueue,
    offset_s: f64,
}

/// A clock that advances only when told to: the heart of deterministic
/// simulation testing.
///
/// Time is a number plus an explicit event queue of scheduled wake-ups.
/// Actors register interest in a future instant with
/// [`VirtualClock::schedule`]; when the simulation has nothing runnable
/// *now*, it calls [`VirtualClock::advance`], which jumps `now` straight to
/// the earliest scheduled instant and returns the token registered for it.
/// Nothing ever sleeps, so a minute of simulated timeouts costs
/// microseconds of real time, and two runs that schedule the same events
/// read identical timestamps — bit for bit.
///
/// Handles are cheap clones sharing one queue, mirroring how [`WallClock`]
/// is `Copy`.
#[derive(Clone)]
pub struct VirtualClock {
    inner: Arc<Mutex<VirtualInner>>,
}

impl VirtualClock {
    /// A clock at `SimTime::ZERO` with an empty queue.
    pub fn new() -> Self {
        Self::resumed_at(0.0)
    }

    /// A clock that already shows `offset_s` seconds elapsed.
    pub fn resumed_at(offset_s: f64) -> Self {
        assert!(
            offset_s.is_finite() && offset_s >= 0.0,
            "invalid clock offset {offset_s}"
        );
        VirtualClock {
            inner: Arc::new(Mutex::new(VirtualInner {
                queue: WakeupQueue::starting_at(SimTime::from_secs(offset_s)),
                offset_s,
            })),
        }
    }

    /// The current virtual reading.
    pub fn now(&self) -> SimTime {
        self.inner.lock().queue.now()
    }

    /// Registers a wake-up for `token` at absolute time `at` (clamped to
    /// `now` if already past). Equal-time wake-ups fire in registration
    /// order.
    pub fn schedule(&self, at: SimTime, token: u64) {
        self.inner.lock().queue.schedule(at, token);
    }

    /// Registers a wake-up `delay_s` seconds from now.
    pub fn schedule_in(&self, delay_s: f64, token: u64) {
        assert!(
            delay_s.is_finite() && delay_s >= 0.0,
            "invalid delay {delay_s}"
        );
        let at = self.now() + delay_s;
        self.schedule(at, token);
    }

    /// The earliest scheduled instant, if any.
    pub fn peek(&self) -> Option<SimTime> {
        self.inner.lock().queue.peek()
    }

    /// Pops the earliest wake-up, advances `now` to its instant, and
    /// returns `(instant, token)`. Returns `None` when the queue is empty —
    /// in a simulation, that means every actor is idle forever.
    pub fn advance(&self) -> Option<(SimTime, u64)> {
        self.inner.lock().queue.pop()
    }

    /// Number of pending wake-ups.
    pub fn pending(&self) -> usize {
        self.inner.lock().queue.len()
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

// Both clocks also serve as telemetry time sources, so event timestamps
// ride the same SimTime axis as the middleware's deadlines — wall-driven
// on threads, simulation-driven (and therefore replayable) under DST.
impl vc_telemetry::TimeSource for WallClock {
    fn now_s(&self) -> f64 {
        WallClock::now(self).as_secs()
    }
}

impl vc_telemetry::TimeSource for VirtualClock {
    fn now_s(&self) -> f64 {
        VirtualClock::now(self).as_secs()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        VirtualClock::now(self)
    }

    fn elapsed_s(&self) -> f64 {
        let g = self.inner.lock();
        g.queue.now().as_secs() - g.offset_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_measures_sleep() {
        let c = WallClock::start();
        let a = c.now();
        std::thread::sleep(std::time::Duration::from_millis(15));
        let b = c.now();
        assert!(b > a);
        assert!(b - a >= 0.014, "slept 15ms but clock shows {}", b - a);
    }

    #[test]
    fn resume_offset_shifts_readings() {
        let c = WallClock::resumed_at(100.0);
        assert!(c.now().as_secs() >= 100.0);
        assert!(c.elapsed_s() < 1.0, "offset must not count as elapsed");
    }

    #[test]
    fn virtual_clock_advances_only_on_demand() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.schedule_in(5.0, 1);
        c.schedule_in(2.0, 2);
        // Nothing moves until advance() is called.
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.peek(), Some(SimTime::from_secs(2.0)));
        assert_eq!(c.advance(), Some((SimTime::from_secs(2.0), 2)));
        assert_eq!(c.advance(), Some((SimTime::from_secs(5.0), 1)));
        assert_eq!(c.advance(), None);
        assert!((Clock::elapsed_s(&c) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn equal_instants_fire_in_registration_order() {
        let c = VirtualClock::new();
        for token in 0..10 {
            c.schedule(SimTime::from_secs(1.0), token);
        }
        for token in 0..10 {
            assert_eq!(c.advance(), Some((SimTime::from_secs(1.0), token)));
        }
    }

    #[test]
    fn past_instants_clamp_to_now() {
        let c = VirtualClock::new();
        c.schedule(SimTime::from_secs(3.0), 7);
        c.advance();
        // Scheduling "1s" after time already reached 3s fires at 3s, not
        // before it: the clock never runs backwards.
        c.schedule(SimTime::from_secs(1.0), 8);
        assert_eq!(c.advance(), Some((SimTime::from_secs(3.0), 8)));
    }

    #[test]
    fn virtual_resume_offset_excluded_from_elapsed() {
        let c = VirtualClock::resumed_at(50.0);
        c.schedule_in(4.0, 0);
        c.advance();
        assert_eq!(c.now(), SimTime::from_secs(54.0));
        assert!((Clock::elapsed_s(&c) - 4.0).abs() < 1e-12);
    }
}
