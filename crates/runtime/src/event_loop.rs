//! A libuv-style event loop driving repeating timers.
//!
//! Each timer carries a callback that is invoked with a [`TimerControl`]
//! handle; through it the callback can read and **mutate its own interval**
//! — the primitive Apollo's adaptive/dynamic monitoring interval (§3.4.1)
//! is built on. The callback's [`TimerAction`] return value decides whether
//! the timer re-arms, stops, or parks until [`TimerControl::wake`] arms it
//! no sooner than one interval after its last fire.
//!
//! The loop runs on an [`AnyClock`]: with a [`VirtualClock`] inside it is
//! a deterministic discrete-event scheduler (used by every figure harness);
//! with a [`RealClock`] it sleeps between deadlines like libuv's
//! `uv_run(UV_RUN_DEFAULT)`.
//!
//! Expired callbacks run on the loop thread, in deadline order and, on a
//! tie, timer-id order. Wakes and cancels may come from any thread.

use crate::time::{duration_to_nanos, AnyClock, Nanos, RealClock, VirtualClock};
use crate::timer::{EntryId, Expired, TimerHeap};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifier of a timer registered with an [`EventLoop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// What a timer callback wants to happen next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerAction {
    /// Re-arm with the (possibly updated) interval.
    Continue,
    /// Do not re-arm until [`TimerControl::wake`].
    Park,
    /// Stop this timer; it will not fire again.
    Stop,
}

/// Values of `TimerControl::state`: on the heap (or popped, about to run),
/// running, running with a wake pending, and parked until woken.
const ARMED: u8 = 0;
const RUNNING: u8 = 1;
const WOKEN: u8 = 2;
const PARKED: u8 = 3;

/// Shared, mutable state of one timer, exposed to its callback.
///
/// Intervals are stored in nanoseconds; `set_interval` from inside the
/// callback affects the *next* re-arm, exactly like re-programming a libuv
/// repeat timer.
#[derive(Debug)]
pub struct TimerControl {
    id: TimerId,
    interval: AtomicU64,
    cancelled: AtomicBool,
    fires: AtomicU64,
    /// One of `ARMED`, `RUNNING`, `WOKEN`, `PARKED`.
    state: AtomicU8,
    /// Clock reading when the callback last started, stored as it parks.
    last_fire: AtomicU64,
    queue: Arc<Mutex<TimerHeap>>,
    clock: AnyClock,
}

impl TimerControl {
    /// Make a parked timer due at `max(now, last fire + interval)`. A wake
    /// that lands while the callback runs re-arms the timer when it parks;
    /// a wake on an armed timer does nothing. Callable from any thread; a
    /// real-clock loop asleep toward a later deadline sees it at that turn.
    pub fn wake(&self) {
        let woken = self.state.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| match s {
            PARKED => Some(ARMED),
            RUNNING => Some(WOKEN),
            _ => None,
        });
        if woken == Ok(PARKED) {
            // The read of PARKED acquires the park's swap, which released the
            // callback's `set_interval` and `last_fire` stores: both Relaxed.
            let due =
                self.last_fire.load(Ordering::Relaxed) + self.interval.load(Ordering::Relaxed);
            self.queue.lock().insert(EntryId(self.id.0), self.clock.now().max(due));
        }
    }

    /// This timer's id.
    pub fn id(&self) -> TimerId {
        self.id
    }

    /// Current interval.
    pub fn interval(&self) -> Duration {
        Duration::from_nanos(self.interval.load(Ordering::Relaxed))
    }

    /// Re-program the interval used for the next re-arm. Clamped to at
    /// least 1ns to avoid a zero-interval spin. Relaxed: the loop thread
    /// re-arms from its own store, and a wake from another thread reads it
    /// through the park's release/acquire chain (see [`TimerControl::wake`]).
    pub fn set_interval(&self, interval: Duration) {
        self.interval.store(duration_to_nanos(interval).max(1), Ordering::Relaxed);
    }

    /// Cancel the timer from outside the callback. A parked timer is armed
    /// now, so the loop's next turn reaps it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        if self.state.compare_exchange(PARKED, ARMED, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            self.queue.lock().insert(EntryId(self.id.0), self.clock.now());
        }
    }

    /// Whether the timer has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Number of times this timer's callback has run. Relaxed: a count
    /// that publishes no other data.
    pub fn fire_count(&self) -> u64 {
        self.fires.load(Ordering::Relaxed)
    }
}

/// A timer's [`std::task::Waker`] calls [`TimerControl::wake`].
impl std::task::Wake for TimerControl {
    fn wake(self: Arc<Self>) {
        TimerControl::wake(&self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        TimerControl::wake(self);
    }
}

type Callback = Box<dyn FnMut(&TimerControl) -> TimerAction + Send>;

/// One registered timer, owned by the loop.
struct TimerSlot {
    control: Arc<TimerControl>,
    callback: Callback,
}

/// Pre-resolved instrument handles for the dispatch hot path.
struct LoopObs {
    /// Total callback invocations.
    fires: apollo_obs::Counter,
    /// `now - deadline` at pop time: how late each expiration was serviced.
    dispatch_lag: apollo_obs::Histogram,
    /// Wall-clock runtime of each timer's sampled callbacks.
    callback_ns: apollo_obs::Histogram,
    /// Sampled callbacks whose wall-clock runtime exceeded their own
    /// interval (the timer can never keep its schedule). Judged on the
    /// fires `callback_ns` timed, so it undercounts by the sampling period.
    overruns: apollo_obs::Counter,
    /// Caught callback panics.
    panics: apollo_obs::Counter,
}

/// The event loop. Not itself `Sync`; run it on one thread and interact
/// with timers through their [`TimerControl`] handles.
pub struct EventLoop {
    clock: AnyClock,
    queue: Arc<Mutex<TimerHeap>>,
    /// Indexed by the dense ids the loop hands out from 1; retired: `None`.
    timers: Vec<Option<TimerSlot>>,
    /// Timers registered and not yet retired.
    live: usize,
    /// Expired-entry scratch buffer, reused across iterations.
    scratch: Vec<Expired>,
    /// The turn's `Continue` re-arms, inserted under one queue lock as it
    /// ends: each is later than its `now`, so no firing order changes.
    rearms: Vec<(EntryId, Nanos)>,
    /// Callbacks that panicked (each kills only its own timer, never the
    /// loop).
    panics: u64,
    /// Metrics handles; `None` until [`EventLoop::instrument`] is called
    /// with an enabled registry.
    obs: Option<LoopObs>,
}

impl EventLoop {
    /// Event loop over a fresh virtual clock.
    pub fn new_virtual() -> Self {
        Self::with_clock(AnyClock::Virtual(VirtualClock::new()))
    }

    /// Event loop over the wall clock.
    pub fn new_real() -> Self {
        Self::with_clock(AnyClock::Real(RealClock::new()))
    }

    /// Event loop over the given clock.
    pub fn with_clock(clock: AnyClock) -> Self {
        Self {
            clock,
            queue: Arc::new(Mutex::new(TimerHeap::new())),
            timers: vec![None],
            live: 0,
            scratch: Vec::new(),
            rearms: Vec::new(),
            panics: 0,
            obs: None,
        }
    }

    /// Wire the dispatch path into `registry`: timer fire counts (added once
    /// per turn), dispatch lag (`runtime.timer.dispatch_lag_ns`, observed
    /// once per run of equal lags) and caught panics, exact, plus
    /// callback runtime (`runtime.timer.callback_ns`) and interval overruns
    /// on each timer's sampled fires.
    /// Passing a no-op registry removes the instrumentation again.
    pub fn instrument(&mut self, registry: &apollo_obs::Registry) {
        self.obs = registry.enabled().then(|| LoopObs {
            fires: registry.counter("runtime.timer.fires"),
            dispatch_lag: registry.histogram("runtime.timer.dispatch_lag_ns"),
            callback_ns: registry.histogram("runtime.timer.callback_ns"),
            overruns: registry.counter("runtime.timer.overruns"),
            panics: registry.counter("runtime.timer.panics"),
        });
    }

    /// The clock driving this loop.
    pub fn clock(&self) -> &AnyClock {
        &self.clock
    }

    /// Register a repeating timer firing every `interval`, first firing one
    /// `interval` from now. Returns a control handle shared with the
    /// callback.
    pub fn add_timer(
        &mut self,
        interval: Duration,
        callback: impl FnMut(&TimerControl) -> TimerAction + Send + 'static,
    ) -> Arc<TimerControl> {
        let id = TimerId(self.timers.len() as u64);
        let control = Arc::new(TimerControl {
            id,
            interval: AtomicU64::new(duration_to_nanos(interval).max(1)),
            cancelled: AtomicBool::new(false),
            fires: AtomicU64::new(0),
            state: AtomicU8::new(ARMED),
            last_fire: AtomicU64::new(0),
            queue: Arc::clone(&self.queue),
            clock: self.clock.clone(),
        });
        let deadline = self.clock.now().saturating_add(control.interval.load(Ordering::Relaxed));
        self.timers
            .push(Some(TimerSlot { control: Arc::clone(&control), callback: Box::new(callback) }));
        self.live += 1;
        self.queue.lock().insert(EntryId(id.0), deadline);
        control
    }

    /// Number of live (non-cancelled) timers.
    pub fn timer_count(&self) -> usize {
        self.live
    }

    /// Number of timer callbacks that have panicked. Each panic is caught
    /// and unregisters only the offending timer; the loop and all other
    /// timers keep running.
    pub fn callback_panics(&self) -> u64 {
        self.panics
    }

    /// Run one expired timer's callback and decide its fate: `None` when
    /// it was cancelled before it ran, else whether it retires (it stopped
    /// or panicked, or was cancelled while it ran). A `Continue` re-arm
    /// joins `rearms`.
    fn run_slot(
        slot: &mut TimerSlot,
        panics: &mut u64,
        obs: Option<&LoopObs>,
        rearms: &mut Vec<(EntryId, Nanos)>,
    ) -> Option<bool> {
        let ctl = &slot.control;
        if ctl.is_cancelled() {
            return None;
        }
        // A wake from here on asks for another run. Relaxed: a wake that reads
        // an older state is not after this, so the input's lock shows its publish.
        ctl.state.store(RUNNING, Ordering::Relaxed);
        let started = ctl.clock.now();
        // Only the loop thread writes `fires`.
        let fire = ctl.fires.load(Ordering::Relaxed);
        ctl.fires.store(fire + 1, Ordering::Relaxed);
        // Counters are exact; only this timer's sampled fires are timed.
        let start = (obs.is_some() && apollo_obs::sampled(fire)).then(std::time::Instant::now);
        // A panicking callback (buggy monitor hook, bad insight builder)
        // must not take the whole service down: isolate it and retire the
        // timer. The mutexes this crate hands out are non-poisoning, so
        // state shared with other callbacks stays usable.
        let cb = &mut slot.callback;
        let action = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cb(ctl)));
        if let Some(obs) = obs {
            if let Some(start) = start {
                let dur = start.elapsed().as_nanos() as u64;
                obs.callback_ns.observe(dur);
                if dur > ctl.interval.load(Ordering::Relaxed) {
                    obs.overruns.inc();
                }
            }
            if action.is_err() {
                obs.panics.inc();
            }
        }
        Some(match action {
            Ok(TimerAction::Continue) if !ctl.is_cancelled() => {
                let next = ctl.clock.now().saturating_add(ctl.interval.load(Ordering::Relaxed));
                rearms.push((EntryId(ctl.id.0), next));
                false
            }
            Ok(TimerAction::Park) if !ctl.is_cancelled() => {
                // The swap publishes `last_fire` to the wake that arms it.
                ctl.last_fire.store(started, Ordering::Relaxed);
                if ctl.state.swap(PARKED, Ordering::SeqCst) == WOKEN {
                    ctl.wake(); // woken while it ran
                } else if ctl.is_cancelled() {
                    ctl.cancel(); // cancelled as it parked: armed, to be reaped
                }
                false
            }
            Ok(_) => true,
            Err(_) => {
                *panics += 1;
                true
            }
        })
    }

    /// Run one iteration: wait for the earliest deadline (sleeping or
    /// advancing virtual time) and fire everything due. Returns `false`
    /// when no timer is armed.
    pub fn turn(&mut self) -> bool {
        let next = self.queue.lock().next_deadline();
        let Some(deadline) = next else { return false };
        let now = self.clock.wait_until(deadline);
        let mut expired = std::mem::take(&mut self.scratch);
        expired.clear();
        self.queue.lock().pop_expired(now, &mut expired);
        let Self { timers, live, panics, obs, rearms, .. } = self;
        let mut fired = 0;
        for e in &expired {
            let entry = &mut timers[e.id.0 as usize];
            let Some(slot) = entry.as_mut() else { continue };
            let fate = Self::run_slot(slot, panics, obs.as_ref(), rearms);
            fired += u64::from(fate.is_some());
            if fate != Some(false) {
                *entry = None;
                *live -= 1;
            }
        }
        if !rearms.is_empty() {
            let mut queue = self.queue.lock();
            rearms.drain(..).for_each(|(id, next)| queue.insert(id, next));
        }
        if let Some(obs) = obs.as_ref() {
            obs.fires.add(fired);
            // Popped in deadline order, so equal lags are adjacent.
            for run in expired.chunk_by(|a, b| a.deadline == b.deadline) {
                obs.dispatch_lag.observe_n(now.saturating_sub(run[0].deadline), run.len() as u64);
            }
        }
        self.scratch = expired;
        self.live > 0
    }

    /// Run until no timer is armed or `horizon` (absolute clock time) is
    /// reached. Timers whose next deadline is past the horizon stay armed
    /// but do not fire.
    pub fn run_until(&mut self, horizon: Nanos) {
        loop {
            let next = self.queue.lock().next_deadline();
            match next {
                Some(d) if d <= horizon => {
                    if !self.turn() {
                        break;
                    }
                }
                _ => break,
            }
        }
        // Land exactly on the horizon so elapsed-time accounting is exact.
        if self.clock.now() < horizon {
            self.clock.wait_until(horizon);
        }
    }

    /// Run for `duration` from the current clock time.
    pub fn run_for(&mut self, duration: Duration) {
        let horizon = self.clock.now().saturating_add(duration_to_nanos(duration));
        self.run_until(horizon);
    }
}

impl std::fmt::Debug for EventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop")
            .field("timers", &self.live)
            .field("pending", &self.queue.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn repeating_timer_fires_expected_count() {
        let mut el = EventLoop::new_virtual();
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        el.add_timer(Duration::from_millis(5), move |_| {
            n2.fetch_add(1, Ordering::SeqCst);
            TimerAction::Continue
        });
        el.run_for(Duration::from_millis(50));
        assert_eq!(n.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn stop_action_removes_timer() {
        let mut el = EventLoop::new_virtual();
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        el.add_timer(Duration::from_millis(1), move |_| {
            if n2.fetch_add(1, Ordering::SeqCst) + 1 >= 3 {
                TimerAction::Stop
            } else {
                TimerAction::Continue
            }
        });
        el.run_for(Duration::from_millis(100));
        assert_eq!(n.load(Ordering::SeqCst), 3);
        assert_eq!(el.timer_count(), 0);
    }

    #[test]
    fn callback_can_retune_its_interval() {
        // Start at 1ms, double each firing: deadlines at 1, 3, 7, 15, 31...
        let mut el = EventLoop::new_virtual();
        let times = Arc::new(Mutex::new(Vec::new()));
        let t2 = times.clone();
        let clock = el.clock().clone();
        el.add_timer(Duration::from_millis(1), move |ctl| {
            t2.lock().push(clock.now());
            ctl.set_interval(ctl.interval() * 2);
            TimerAction::Continue
        });
        el.run_for(Duration::from_millis(32));
        let t = times.lock().clone();
        assert_eq!(t, vec![1_000_000, 3_000_000, 7_000_000, 15_000_000, 31_000_000]);
    }

    #[test]
    fn external_cancel_stops_timer() {
        let mut el = EventLoop::new_virtual();
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        let ctl = el.add_timer(Duration::from_millis(1), move |_| {
            n2.fetch_add(1, Ordering::SeqCst);
            TimerAction::Continue
        });
        // Fire twice, then cancel.
        el.run_for(Duration::from_millis(2));
        ctl.cancel();
        el.run_for(Duration::from_millis(10));
        assert_eq!(n.load(Ordering::SeqCst), 2);
        assert_eq!(el.timer_count(), 0);
    }

    #[test]
    fn multiple_timers_interleave_in_deadline_order() {
        let mut el = EventLoop::new_virtual();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        el.add_timer(Duration::from_millis(2), move |_| {
            l1.lock().push('a');
            TimerAction::Continue
        });
        el.add_timer(Duration::from_millis(3), move |_| {
            l2.lock().push('b');
            TimerAction::Continue
        });
        el.run_for(Duration::from_millis(6));
        // a@2, b@3, a@4, a@6, b@6 (a first: lower id on tie)
        assert_eq!(log.lock().clone(), vec!['a', 'b', 'a', 'a', 'b']);
    }

    #[test]
    fn run_until_lands_on_horizon() {
        let mut el = EventLoop::new_virtual();
        el.add_timer(Duration::from_millis(7), |_| TimerAction::Continue);
        el.run_for(Duration::from_millis(10));
        assert_eq!(el.clock().now(), 10_000_000);
    }

    #[test]
    fn fire_count_tracks() {
        let mut el = EventLoop::new_virtual();
        let ctl = el.add_timer(Duration::from_millis(1), |_| TimerAction::Continue);
        el.run_for(Duration::from_millis(5));
        assert_eq!(ctl.fire_count(), 5);
    }

    #[test]
    fn empty_loop_turn_returns_false() {
        let mut el = EventLoop::new_virtual();
        assert!(!el.turn());
    }

    #[test]
    fn panicking_callback_is_isolated() {
        let mut el = EventLoop::new_virtual();
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        el.add_timer(Duration::from_millis(2), |_| panic!("bad vertex"));
        el.add_timer(Duration::from_millis(1), move |_| {
            n2.fetch_add(1, Ordering::SeqCst);
            TimerAction::Continue
        });
        // Quiet the default panic hook for the expected panic.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        el.run_for(Duration::from_millis(10));
        std::panic::set_hook(hook);
        // The panicking timer fired once, was retired, and the sibling
        // kept its full schedule.
        assert_eq!(el.callback_panics(), 1);
        assert_eq!(el.timer_count(), 1);
        assert_eq!(n.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn instrumented_loop_counts_fires_lag_and_panics() {
        let mut el = EventLoop::new_virtual();
        let reg = apollo_obs::Registry::new();
        el.instrument(&reg);
        el.add_timer(Duration::from_millis(1), |_| TimerAction::Continue);
        el.add_timer(Duration::from_millis(3), |_| panic!("bad hook"));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        el.run_for(Duration::from_millis(5));
        std::panic::set_hook(hook);
        let snap = reg.snapshot();
        // 5 fires from the 1ms timer + 1 from the panicking 3ms timer.
        assert_eq!(snap.counter("runtime.timer.fires"), 6);
        assert_eq!(snap.counter("runtime.timer.panics"), 1);
        assert_eq!(snap.histograms["runtime.timer.dispatch_lag_ns"].count, 6);
        // Timed: the first fire of each of the two timers.
        assert_eq!(snap.histograms["runtime.timer.callback_ns"].count, 2);
        // Virtual-time intervals dwarf real callback runtimes: no overruns.
        assert_eq!(snap.counter("runtime.timer.overruns"), 0);
    }

    #[test]
    fn fires_are_exact_and_callback_timing_is_sampled() {
        let mut el = EventLoop::new_virtual();
        let reg = apollo_obs::Registry::new();
        el.instrument(&reg);
        el.add_timer(Duration::from_millis(1), |_| TimerAction::Continue);
        el.run_for(Duration::from_millis(640));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("runtime.timer.fires"), 640);
        assert_eq!(snap.histograms["runtime.timer.dispatch_lag_ns"].count, 640);
        assert_eq!(snap.histograms["runtime.timer.callback_ns"].count, 10);
    }

    #[test]
    fn noop_registry_leaves_loop_uninstrumented() {
        let mut el = EventLoop::new_virtual();
        let reg = apollo_obs::Registry::noop();
        el.instrument(&reg);
        el.add_timer(Duration::from_millis(1), |_| TimerAction::Continue);
        el.run_for(Duration::from_millis(3));
        assert_eq!(reg.snapshot(), apollo_obs::Snapshot::default());
    }

    #[test]
    fn real_clock_smoke() {
        let mut el = EventLoop::new_real();
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        el.add_timer(Duration::from_millis(1), move |_| {
            if n2.fetch_add(1, Ordering::SeqCst) + 1 >= 3 {
                TimerAction::Stop
            } else {
                TimerAction::Continue
            }
        });
        el.run_for(Duration::from_millis(500));
        assert_eq!(n.load(Ordering::SeqCst), 3);
    }

    /// A timer that parks after every fire and logs the clock at each.
    fn parking(el: &mut EventLoop, every_ms: u64) -> (Arc<TimerControl>, Arc<Mutex<Vec<Nanos>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let (sink, clock) = (Arc::clone(&log), el.clock().clone());
        let ctl = el.add_timer(Duration::from_millis(every_ms), move |_| {
            sink.lock().push(clock.now());
            TimerAction::Park
        });
        (ctl, log)
    }

    const MS: Nanos = 1_000_000;

    #[test]
    fn a_parked_timer_never_fires() {
        let mut el = EventLoop::new_virtual();
        let (ctl, log) = parking(&mut el, 5);
        el.run_for(Duration::from_secs(10));
        assert_eq!(*log.lock(), [5 * MS], "fires at its first interval, then parks");
        assert_eq!((ctl.fire_count(), el.timer_count()), (1, 1), "parked, not retired");
        assert!(!el.turn(), "nothing is armed");
    }

    #[test]
    fn a_wake_arms_no_earlier_than_one_interval_after_the_last_fire() {
        let mut el = EventLoop::new_virtual();
        let (ctl, log) = parking(&mut el, 5);
        el.run_for(Duration::from_millis(6));
        ctl.wake(); // at 6 ms: held back to 5 + 5
        el.run_for(Duration::from_millis(10));
        ctl.wake(); // at 16 ms, past 10 + 5: due now
        el.run_for(Duration::from_millis(1));
        assert_eq!(*log.lock(), [5 * MS, 10 * MS, 16 * MS]);
    }

    #[test]
    fn two_wakes_give_one_expiry() {
        let mut el = EventLoop::new_virtual();
        let (ctl, log) = parking(&mut el, 5);
        el.run_for(Duration::from_millis(20));
        ctl.wake();
        ctl.wake();
        assert_eq!(el.queue.lock().len(), 1, "one heap entry per timer");
        el.run_for(Duration::from_millis(20));
        assert_eq!(*log.lock(), [5 * MS, 20 * MS]);
    }

    #[test]
    fn a_wake_during_the_callback_rearms_it() {
        // The first run wakes itself, as a publish landing mid-run would:
        // it parks, and the wake re-arms it one interval later.
        let mut el = EventLoop::new_virtual();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (sink, clock) = (Arc::clone(&log), el.clock().clone());
        el.add_timer(Duration::from_millis(5), move |ctl| {
            let mut log = sink.lock();
            log.push(clock.now());
            if log.len() == 1 {
                ctl.wake();
            }
            TimerAction::Park
        });
        el.run_for(Duration::from_millis(50));
        assert_eq!(*log.lock(), [5 * MS, 10 * MS]);
    }

    /// 64 timers every 3 ms (id 1 cancels id 68 at 30 ms, in the turn both
    /// are due), id 65 doubling its interval from 1 ms, id 66 parking after
    /// every fire and id 67 waking it every 5 ms, id 68 every 3 ms until
    /// cancelled: over 50 turns the fires follow a sorted `(deadline, id)`
    /// model, whatever a turn re-arms, wakes or cancels before it ends.
    #[test]
    fn fires_follow_the_deadline_id_model_across_rearms_wakes_and_cancels() {
        const REGULAR: u64 = 64;
        const DOUBLING: u64 = 65;
        const SLEEPING: u64 = 66;
        const WAKING: u64 = 67;
        const VICTIM: u64 = 68;
        const TURNS: usize = 50;
        let ms = Duration::from_millis;
        let mut el = EventLoop::new_virtual();
        let log = Arc::new(Mutex::new(Vec::new()));
        let victim: Arc<std::sync::OnceLock<Arc<TimerControl>>> = Arc::default();
        let logged = |el: &EventLoop| {
            let (sink, clock) = (Arc::clone(&log), el.clock().clone());
            move |ctl: &TimerControl| {
                sink.lock().push((clock.now(), ctl.id().0));
                clock.now()
            }
        };
        for _ in 0..REGULAR {
            let (fire, victim) = (logged(&el), Arc::clone(&victim));
            el.add_timer(ms(3), move |ctl| {
                if fire(ctl) == 30 * MS && ctl.id().0 == 1 {
                    victim.get().expect("registered").cancel();
                }
                TimerAction::Continue
            });
        }
        let fire = logged(&el);
        el.add_timer(ms(1), move |ctl| {
            fire(ctl);
            ctl.set_interval(ctl.interval() * 2);
            TimerAction::Continue
        });
        let fire = logged(&el);
        let sleeper = el.add_timer(ms(2), move |ctl| {
            fire(ctl);
            TimerAction::Park
        });
        let fire = logged(&el);
        el.add_timer(ms(5), move |ctl| {
            fire(ctl);
            sleeper.wake();
            TimerAction::Continue
        });
        let fire = logged(&el);
        let cancelled = el.add_timer(ms(3), move |ctl| {
            fire(ctl);
            TimerAction::Continue
        });
        assert_eq!(cancelled.id().0, VICTIM);
        let _ = victim.set(Arc::clone(&cancelled));
        for _ in 0..TURNS {
            assert!(el.turn());
        }

        // The model: every pending `(deadline, id)` in a sorted set; a turn
        // takes what is due at the earliest deadline, and what its fires
        // arm lands in the set for a later turn.
        let mut pending: std::collections::BTreeSet<(Nanos, u64)> =
            (1..=REGULAR).map(|id| (3 * MS, id)).collect();
        pending.extend([(MS, DOUBLING), (2 * MS, SLEEPING), (5 * MS, WAKING), (3 * MS, VICTIM)]);
        let (mut doubling_every, mut slept_at, mut victim_cancelled) = (MS, None, false);
        let mut model = Vec::new();
        for _ in 0..TURNS {
            let now = pending.first().expect("always armed").0;
            let later = pending.split_off(&(now + 1, 0));
            for (_, id) in std::mem::replace(&mut pending, later) {
                if id == VICTIM && victim_cancelled {
                    continue; // reaped without a fire
                }
                model.push((now, id));
                match id {
                    DOUBLING => {
                        doubling_every *= 2;
                        pending.insert((now + doubling_every, id));
                    }
                    SLEEPING => slept_at = Some(now),
                    WAKING => {
                        if let Some(last) = slept_at.take() {
                            pending.insert((now.max(last + 2 * MS), SLEEPING));
                        }
                        pending.insert((now + 5 * MS, id));
                    }
                    _ => {
                        victim_cancelled |= id == 1 && now == 30 * MS;
                        pending.insert((now + 3 * MS, id));
                    }
                }
            }
        }
        assert_eq!(*log.lock(), model);
        assert!(model.iter().any(|&(t, id)| id == SLEEPING && t > 2 * MS), "woken at least once");
        assert_eq!(cancelled.fire_count(), 9, "fired at 3, 6, ..., 27 ms, reaped at 30 ms");
        assert_eq!(el.timer_count(), 67, "the cancelled timer was reaped");
    }

    #[test]
    fn cancel_reaps_a_parked_timer() {
        let mut el = EventLoop::new_virtual();
        let (ctl, log) = parking(&mut el, 5);
        el.run_for(Duration::from_millis(20));
        ctl.cancel();
        assert_eq!(el.timer_count(), 1);
        assert!(!el.turn(), "the next turn reaps it");
        assert_eq!(el.timer_count(), 0);
        assert_eq!(log.lock().len(), 1, "the reap runs no callback");
    }
}
