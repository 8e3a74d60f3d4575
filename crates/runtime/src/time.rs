//! Pluggable time sources.
//!
//! All of Apollo's internals keep time as monotonic nanoseconds since an
//! arbitrary epoch ([`Nanos`]). Two clock implementations are provided:
//!
//! * [`RealClock`] — wall-clock, backed by [`std::time::Instant`]. Used by
//!   the live service.
//! * [`VirtualClock`] — a manually-advanced clock shared across threads.
//!   Used by the figure-regeneration harnesses so 30-minute workload
//!   replays (e.g. the HACC traces of §4.3.1) complete in milliseconds and
//!   produce bit-identical series run-to-run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonic nanoseconds since the clock's epoch.
pub type Nanos = u64;

/// Number of nanoseconds in one second, as used throughout the crate.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Wall-clock time source based on [`Instant`].
#[derive(Clone, Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// Create a clock whose epoch is "now".
    pub fn new() -> Self {
        Self { epoch: Instant::now() }
    }

    /// Current time in nanoseconds since this clock's epoch.
    pub fn now(&self) -> Nanos {
        self.epoch.elapsed().as_nanos() as Nanos
    }

    /// Sleep until `deadline`; returns the time observed after waking.
    pub fn wait_until(&self, deadline: Nanos) -> Nanos {
        let now = self.now();
        if deadline > now {
            std::thread::sleep(Duration::from_nanos(deadline - now));
        }
        self.now()
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

/// A deterministic, manually advanced clock.
///
/// `wait_until` advances the clock instead of sleeping, which turns any
/// timer-driven experiment into a discrete-event simulation: a 30-minute
/// monitoring run finishes as fast as the CPU can drain the timer queue.
///
/// Cloned handles share the same underlying time.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Create a virtual clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `delta`.
    pub fn advance(&self, delta: Duration) {
        self.now.fetch_add(delta.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Set the clock to an absolute time. Panics if this would move time
    /// backwards (the clock is monotonic by contract).
    pub fn set(&self, t: Nanos) {
        let prev = self.now.swap(t, Ordering::SeqCst);
        assert!(t >= prev, "VirtualClock must not move backwards: {prev} -> {t}");
    }

    /// Current time in nanoseconds since this clock's epoch.
    pub fn now(&self) -> Nanos {
        self.now.load(Ordering::SeqCst)
    }

    /// Jump the clock forward to `deadline`; returns the time observed.
    pub fn wait_until(&self, deadline: Nanos) -> Nanos {
        // Monotonic max: never move backwards if another thread already
        // advanced past the deadline.
        let mut cur = self.now.load(Ordering::SeqCst);
        while cur < deadline {
            match self.now.compare_exchange(cur, deadline, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return deadline,
                Err(actual) => cur = actual,
            }
        }
        cur
    }
}

/// The clock handle an [`crate::event_loop::EventLoop`] runs on: either
/// implementation, so services are built once and driven in real or
/// virtual time. Cheap to clone (handles share state) and safe to read
/// from many threads; every timer's control holds a clone.
#[derive(Clone)]
pub enum AnyClock {
    /// Wall-clock time.
    Real(RealClock),
    /// Simulated time.
    Virtual(VirtualClock),
}

impl AnyClock {
    /// The virtual clock inside, if any.
    pub fn as_virtual(&self) -> Option<&VirtualClock> {
        match self {
            AnyClock::Virtual(v) => Some(v),
            AnyClock::Real(_) => None,
        }
    }

    /// Current time in nanoseconds since this clock's epoch.
    pub fn now(&self) -> Nanos {
        match self {
            AnyClock::Real(c) => c.now(),
            AnyClock::Virtual(c) => c.now(),
        }
    }

    /// Block (real clock: sleep) or virtually advance (virtual clock:
    /// jump forward) until `deadline`. Returns the time observed after
    /// waking.
    pub fn wait_until(&self, deadline: Nanos) -> Nanos {
        match self {
            AnyClock::Real(c) => c.wait_until(deadline),
            AnyClock::Virtual(c) => c.wait_until(deadline),
        }
    }
}

impl std::fmt::Debug for AnyClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnyClock::Real(_) => write!(f, "AnyClock::Real(t={})", self.now()),
            AnyClock::Virtual(_) => write!(f, "AnyClock::Virtual(t={})", self.now()),
        }
    }
}

/// Converts a [`Duration`] to [`Nanos`], saturating at `u64::MAX`.
pub fn duration_to_nanos(d: Duration) -> Nanos {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A component of vertex work the anatomy instrumentation (Figure 4)
/// attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Sampling the resource (the monitor hook).
    MonitorHook,
    /// Building the fact/insight record.
    Build,
    /// Publishing onto the queue.
    Publish,
    /// Draining input subscriptions (insight vertices).
    Consume,
    /// Everything else (thread management, insight computation).
    Other,
}

/// Report labels, by `Phase as usize`.
const PHASE_NAMES: [&str; 5] = ["monitor_hook", "build", "publish", "consume", "other"];

/// A tiny stopwatch used by the anatomy instrumentation (Figure 4): one
/// slot of accumulated nanoseconds per [`Phase`], filled by the sampled
/// calls only (one poll/pump in [`apollo_obs::SAMPLE_PERIOD`] reads the
/// clock: [`PhaseTimer::begin_call`]), which leaves the shares as they were.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    calls: AtomicU64,
    slots: [AtomicU64; PHASE_NAMES.len()],
}

impl PhaseTimer {
    /// Create an empty phase timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one call of the owning vertex and decide whether it is a
    /// sampled one (the first is).
    #[inline]
    pub fn begin_call(&self) -> bool {
        apollo_obs::sampled(self.calls.fetch_add(1, Ordering::Relaxed))
    }

    /// Record `nanos` of time against `phase`.
    pub fn record(&self, phase: Phase, nanos: u64) {
        self.slots[phase as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Run `f`; on a sampled call, attribute its wall time to `phase`.
    #[inline]
    pub fn time<T>(&self, sampled: bool, phase: Phase, f: impl FnOnce() -> T) -> T {
        if !sampled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(phase, start.elapsed().as_nanos() as u64);
        out
    }

    /// Total recorded time across all phases (sampled calls only).
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|t| t.load(Ordering::Relaxed)).sum()
    }

    /// [`PhaseTimer::total`] scaled from the sampled calls to every call
    /// counted by [`PhaseTimer::begin_call`].
    pub fn estimated_total(&self) -> u64 {
        let calls = self.calls.load(Ordering::Relaxed);
        let timed = calls.div_ceil(apollo_obs::SAMPLE_PERIOD).max(1);
        (self.total() as u128 * calls.max(1) as u128 / timed as u128) as u64
    }

    /// Snapshot of `(phase, nanos, fraction_of_total)` rows for the phases
    /// that recorded anything, ordered by descending time.
    pub fn breakdown(&self) -> Vec<(String, u64, f64)> {
        let total = self.total();
        let mut rows: Vec<(String, u64, f64)> = PHASE_NAMES
            .iter()
            .zip(&self.slots)
            .map(|(name, t)| (name.to_string(), t.load(Ordering::Relaxed)))
            .filter(|&(_, t)| t > 0)
            .map(|(name, t)| (name, t, t as f64 / total as f64))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn real_clock_wait_until_reaches_deadline() {
        let c = RealClock::new();
        let target = c.now() + 2_000_000; // 2ms
        let after = c.wait_until(target);
        assert!(after >= target);
    }

    #[test]
    fn virtual_clock_starts_at_zero() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0);
    }

    #[test]
    fn virtual_clock_advance() {
        let c = VirtualClock::new();
        c.advance(Duration::from_secs(3));
        assert_eq!(c.now(), 3 * NANOS_PER_SEC);
    }

    #[test]
    fn virtual_clock_wait_until_jumps() {
        let c = VirtualClock::new();
        let t = c.wait_until(500);
        assert_eq!(t, 500);
        assert_eq!(c.now(), 500);
    }

    #[test]
    fn virtual_clock_wait_until_past_deadline_is_noop() {
        let c = VirtualClock::new();
        c.set(1000);
        let t = c.wait_until(500);
        assert_eq!(t, 1000);
        assert_eq!(c.now(), 1000);
    }

    #[test]
    fn virtual_clock_shared_between_clones() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(Duration::from_nanos(42));
        assert_eq!(b.now(), 42);
    }

    #[test]
    #[should_panic(expected = "must not move backwards")]
    fn virtual_clock_set_backwards_panics() {
        let c = VirtualClock::new();
        c.set(10);
        c.set(5);
    }

    #[test]
    fn any_clock_dispatches() {
        let v = VirtualClock::new();
        let any = AnyClock::Virtual(v.clone());
        v.advance(Duration::from_nanos(7));
        assert_eq!(any.now(), 7);
        assert!(any.as_virtual().is_some());
        let real = AnyClock::Real(RealClock::new());
        assert!(real.as_virtual().is_none());
    }

    #[test]
    fn phase_timer_accumulates_and_orders() {
        let pt = PhaseTimer::new();
        pt.record(Phase::MonitorHook, 975);
        pt.record(Phase::Publish, 18);
        pt.record(Phase::MonitorHook, 25);
        let rows = pt.breakdown();
        assert_eq!(rows.len(), 2, "phases that recorded nothing are left out");
        assert_eq!(rows[0].0, "monitor_hook");
        assert_eq!(rows[0].1, 1000);
        assert!((rows[0].2 - 1000.0 / 1018.0).abs() < 1e-12);
        assert_eq!(pt.total(), 1018);
    }

    #[test]
    fn phase_timer_times_closures() {
        let pt = PhaseTimer::new();
        let period = apollo_obs::SAMPLE_PERIOD;
        let sampled: Vec<bool> = (0..2 * period).map(|_| pt.begin_call()).collect();
        assert!(sampled[0] && sampled[period as usize], "the first call of each period");
        assert_eq!(sampled.iter().filter(|&&s| s).count(), 2);
        assert_eq!(pt.time(false, Phase::Other, || 21 * 2), 42);
        assert_eq!(pt.total(), 0, "an unsampled call reads no clock");
        pt.time(true, Phase::Other, || pt.record(Phase::Other, 100));
        assert!(pt.total() >= 100);
        assert_eq!(pt.estimated_total(), pt.total() * period, "two timed calls stand for 128");
    }

    #[test]
    fn duration_to_nanos_saturates() {
        assert_eq!(duration_to_nanos(Duration::from_nanos(5)), 5);
        assert_eq!(duration_to_nanos(Duration::MAX), u64::MAX);
    }
}
