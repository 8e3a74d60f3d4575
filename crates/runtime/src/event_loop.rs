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
//! # Dispatch modes
//!
//! By default expired callbacks run **inline** on the loop thread. With
//! [`EventLoop::dispatch_to_pool`] the loop instead hands each turn's batch
//! of expired callbacks to a [`WorkerPool`], grouped into shard lanes by
//! each timer's dispatch key (see [`EventLoop::add_timer_keyed`]): timers
//! sharing a key are executed sequentially in deadline order on one
//! worker, so a vertex never runs concurrently with itself, while timers
//! in different lanes overlap. The loop blocks on a per-turn barrier
//! before computing the next deadline, which keeps virtual-clock runs
//! bit-identical to inline dispatch.

use crate::pool::WorkerPool;
use crate::time::{duration_to_nanos, AnyClock, Nanos, RealClock, VirtualClock};
use crate::timer::{EntryId, Expired, TimerHeap};
use parking_lot::Mutex;
use std::collections::HashMap;
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
            let due = self.last_fire.load(Ordering::Relaxed) + self.interval.load(Ordering::SeqCst);
            self.queue.lock().insert(EntryId(self.id.0), self.clock.now().max(due));
        }
    }

    /// This timer's id.
    pub fn id(&self) -> TimerId {
        self.id
    }

    /// Current interval.
    pub fn interval(&self) -> Duration {
        Duration::from_nanos(self.interval.load(Ordering::SeqCst))
    }

    /// Re-program the interval used for the next re-arm. Clamped to at
    /// least 1ns to avoid a zero-interval spin.
    pub fn set_interval(&self, interval: Duration) {
        self.interval.store(duration_to_nanos(interval).max(1), Ordering::SeqCst);
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

    /// Number of times this timer's callback has run.
    pub fn fire_count(&self) -> u64 {
        self.fires.load(Ordering::SeqCst)
    }
}

type Callback = Box<dyn FnMut(&TimerControl) -> TimerAction + Send>;

/// One registered timer. Shared (`Arc`) between the loop's registry and
/// in-flight dispatch lanes; the callback sits behind a mutex that is
/// only ever contended by the single lane the timer's shard maps to.
struct TimerSlot {
    control: Arc<TimerControl>,
    callback: Mutex<Callback>,
    /// Dispatch-ordering key: slots sharing a key map to the same shard
    /// lane and never run concurrently with each other. Atomic so
    /// [`EventLoop::set_timer_key`] can merge lanes after registration
    /// (only ever written between turns, on the loop thread).
    key: AtomicU64,
    /// Set when the callback stopped, panicked or was cancelled; the loop
    /// reaps retired slots at the end of the turn.
    retired: AtomicBool,
}

/// How expired callbacks are executed each turn.
enum Dispatch {
    /// On the loop thread, in deadline order (the default).
    Inline,
    /// On a worker pool, one sequential lane per shard, with a barrier at
    /// the end of each turn.
    Pool { pool: Arc<WorkerPool>, shards: usize },
}

/// Countdown barrier for one turn's dispatch batch.
struct Latch {
    remaining: std::sync::Mutex<usize>,
    done: std::sync::Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self { remaining: std::sync::Mutex::new(n), done: std::sync::Condvar::new() }
    }

    fn count_down(&self) {
        let mut r = self.remaining.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *r -= 1;
        if *r == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = self.remaining.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while *r > 0 {
            r = self.done.wait(r).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
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
    timers: HashMap<TimerId, Arc<TimerSlot>>,
    next_id: u64,
    /// Expired-entry scratch buffer, reused across iterations.
    scratch: Vec<Expired>,
    /// Callbacks that panicked (each kills only its own timer, never the
    /// loop). Shared with worker lanes in pool dispatch.
    panics: Arc<AtomicU64>,
    /// Metrics handles; `None` until [`EventLoop::instrument`] is called
    /// with an enabled registry.
    obs: Option<Arc<LoopObs>>,
    dispatch: Dispatch,
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
            timers: HashMap::new(),
            next_id: 1,
            scratch: Vec::new(),
            panics: Arc::new(AtomicU64::new(0)),
            obs: None,
            dispatch: Dispatch::Inline,
        }
    }

    /// Execute expired callbacks on `pool` instead of the loop thread,
    /// with one shard lane per worker ×4 (see
    /// [`EventLoop::dispatch_to_pool_sharded`]).
    pub fn dispatch_to_pool(&mut self, pool: Arc<WorkerPool>) {
        let shards = pool.threads() * 4;
        self.dispatch_to_pool_sharded(pool, shards);
    }

    /// Execute expired callbacks on `pool` with an explicit shard count.
    ///
    /// Each turn the loop pops every expired timer, groups them into
    /// `shards` lanes by dispatch key (`key % shards`) and submits one
    /// sequential job per occupied lane, then blocks until the whole
    /// batch finished before advancing time. Per-key ordering is
    /// preserved — timers registered with [`EventLoop::add_timer_keyed`]
    /// under one key never run concurrently with each other — and
    /// `catch_unwind` isolation plus panic accounting work exactly as in
    /// inline mode. More shards than workers keeps lanes fine-grained so
    /// a slow vertex delays only its own lane-mates.
    pub fn dispatch_to_pool_sharded(&mut self, pool: Arc<WorkerPool>, shards: usize) {
        self.dispatch = Dispatch::Pool { pool, shards: shards.max(1) };
    }

    /// Revert to inline dispatch on the loop thread.
    pub fn dispatch_inline(&mut self) {
        self.dispatch = Dispatch::Inline;
    }

    /// The worker pool callbacks are dispatched to, if any.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        match &self.dispatch {
            Dispatch::Inline => None,
            Dispatch::Pool { pool, .. } => Some(pool),
        }
    }

    /// Wire the dispatch path into `registry`: timer fire counts, dispatch
    /// lag (`runtime.timer.dispatch_lag_ns`) and caught panics, exact, plus
    /// callback runtime (`runtime.timer.callback_ns`) and interval overruns
    /// on each timer's sampled fires.
    /// Passing a no-op registry removes the instrumentation again.
    pub fn instrument(&mut self, registry: &apollo_obs::Registry) {
        self.obs = registry.enabled().then(|| {
            Arc::new(LoopObs {
                fires: registry.counter("runtime.timer.fires"),
                dispatch_lag: registry.histogram("runtime.timer.dispatch_lag_ns"),
                callback_ns: registry.histogram("runtime.timer.callback_ns"),
                overruns: registry.counter("runtime.timer.overruns"),
                panics: registry.counter("runtime.timer.panics"),
            })
        });
    }

    /// The clock driving this loop.
    pub fn clock(&self) -> &AnyClock {
        &self.clock
    }

    /// Register a repeating timer firing every `interval`, first firing one
    /// `interval` from now. Returns a control handle shared with the
    /// callback. The timer gets a unique dispatch key (its own id), so
    /// under pool dispatch it shares a lane only coincidentally; use
    /// [`EventLoop::add_timer_keyed`] to serialize a group of timers.
    pub fn add_timer(
        &mut self,
        interval: Duration,
        callback: impl FnMut(&TimerControl) -> TimerAction + Send + 'static,
    ) -> Arc<TimerControl> {
        let key = self.next_id;
        self.add_timer_keyed(key, interval, callback)
    }

    /// [`EventLoop::add_timer`] with an explicit dispatch key. Timers
    /// sharing a key are executed sequentially (in deadline order) under
    /// pool dispatch — the per-vertex ordering guarantee: register all of
    /// one vertex's timers under the vertex's key and it never runs
    /// concurrently with itself.
    pub fn add_timer_keyed(
        &mut self,
        key: u64,
        interval: Duration,
        callback: impl FnMut(&TimerControl) -> TimerAction + Send + 'static,
    ) -> Arc<TimerControl> {
        let id = TimerId(self.next_id);
        self.next_id += 1;
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
        let deadline = self.clock.now().saturating_add(control.interval.load(Ordering::SeqCst));
        self.timers.insert(
            id,
            Arc::new(TimerSlot {
                control: Arc::clone(&control),
                callback: Mutex::new(Box::new(callback)),
                key: AtomicU64::new(key),
                retired: AtomicBool::new(false),
            }),
        );
        self.queue.lock().insert(EntryId(id.0), deadline);
        control
    }

    /// Re-assign a registered timer's dispatch key, merging it into
    /// another key's lane. Used when a dependency appears after
    /// registration (e.g. an insight vertex joining its producers'
    /// lane): from the next turn on, the timer serializes
    /// with everything sharing the new key. No-op for unknown ids.
    pub fn set_timer_key(&mut self, id: TimerId, key: u64) {
        if let Some(slot) = self.timers.get(&id) {
            slot.key.store(key, Ordering::SeqCst);
        }
    }

    /// The dispatch key a registered timer currently carries.
    pub fn timer_key(&self, id: TimerId) -> Option<u64> {
        self.timers.get(&id).map(|slot| slot.key.load(Ordering::SeqCst))
    }

    /// Number of live (non-cancelled) timers.
    pub fn timer_count(&self) -> usize {
        self.timers.len()
    }

    /// Number of timer callbacks that have panicked. Each panic is caught
    /// and unregisters only the offending timer; the loop and all other
    /// timers keep running.
    pub fn callback_panics(&self) -> u64 {
        self.panics.load(Ordering::SeqCst)
    }

    /// Run one expired timer's callback and decide its fate. Shared by
    /// inline dispatch (loop thread) and pool lanes (worker threads): all
    /// state it touches is behind `Arc`s, and a retired slot is only
    /// *marked* here — the loop thread reaps it after the turn's barrier.
    fn run_slot(slot: &TimerSlot, panics: &AtomicU64, obs: Option<&LoopObs>) {
        let ctl = &slot.control;
        if ctl.is_cancelled() {
            slot.retired.store(true, Ordering::SeqCst);
            return;
        }
        // A wake from here on asks for another run. Relaxed: a wake that reads
        // an older state is not after this, so the input's lock shows its publish.
        ctl.state.store(RUNNING, Ordering::Relaxed);
        let started = ctl.clock.now();
        let fire = ctl.fires.fetch_add(1, Ordering::SeqCst);
        // Counters are exact; only this timer's sampled fires are timed.
        let start = (obs.is_some() && apollo_obs::sampled(fire)).then(std::time::Instant::now);
        // A panicking callback (buggy monitor hook, bad insight builder)
        // must not take the whole service down: isolate it and retire the
        // timer. The mutexes this crate hands out are non-poisoning, so
        // state shared with other callbacks stays usable.
        let mut cb = slot.callback.lock();
        let action = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (cb)(ctl)));
        drop(cb);
        if let Some(obs) = obs {
            obs.fires.inc();
            if let Some(start) = start {
                let dur = start.elapsed().as_nanos() as u64;
                obs.callback_ns.observe(dur);
                if dur > ctl.interval.load(Ordering::SeqCst) {
                    obs.overruns.inc();
                }
            }
            if action.is_err() {
                obs.panics.inc();
            }
        }
        match action {
            Ok(TimerAction::Continue) if !ctl.is_cancelled() => {
                let next = ctl.clock.now().saturating_add(ctl.interval.load(Ordering::SeqCst));
                ctl.queue.lock().insert(EntryId(ctl.id.0), next);
            }
            Ok(TimerAction::Park) if !ctl.is_cancelled() => {
                // The swap publishes `last_fire` to the wake that arms it.
                ctl.last_fire.store(started, Ordering::Relaxed);
                if ctl.state.swap(PARKED, Ordering::SeqCst) == WOKEN {
                    ctl.wake(); // woken while it ran
                } else if ctl.is_cancelled() {
                    ctl.cancel(); // cancelled as it parked: armed, to be reaped
                }
            }
            Ok(_) => {
                slot.retired.store(true, Ordering::SeqCst);
            }
            Err(_) => {
                panics.fetch_add(1, Ordering::SeqCst);
                slot.retired.store(true, Ordering::SeqCst);
            }
        }
    }

    fn fire_inline(&mut self, id: TimerId) {
        let Some(slot) = self.timers.get(&id) else { return };
        let slot = Arc::clone(slot);
        Self::run_slot(&slot, &self.panics, self.obs.as_deref());
        if slot.retired.load(Ordering::SeqCst) {
            self.timers.remove(&id);
        }
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
        if let Some(obs) = &self.obs {
            for e in &expired {
                obs.dispatch_lag.observe(now.saturating_sub(e.deadline));
            }
        }
        match &self.dispatch {
            Dispatch::Inline => {
                for e in &expired {
                    self.fire_inline(TimerId(e.id.0));
                }
            }
            Dispatch::Pool { pool, shards } => {
                // Group the batch into shard lanes, preserving deadline
                // order within each lane (expired is already sorted).
                let mut lanes: Vec<Vec<Arc<TimerSlot>>> = vec![Vec::new(); *shards];
                for e in &expired {
                    if let Some(slot) = self.timers.get(&TimerId(e.id.0)) {
                        let lane = (slot.key.load(Ordering::Relaxed) % *shards as u64) as usize;
                        lanes[lane].push(Arc::clone(slot));
                    }
                }
                let occupied = lanes.iter().filter(|l| !l.is_empty()).count();
                if occupied > 0 {
                    let latch = Arc::new(Latch::new(occupied));
                    for lane in lanes.into_iter().filter(|l| !l.is_empty()) {
                        let panics = Arc::clone(&self.panics);
                        let obs = self.obs.clone();
                        let latch = Arc::clone(&latch);
                        pool.submit(move || {
                            for slot in &lane {
                                Self::run_slot(slot, &panics, obs.as_deref());
                            }
                            latch.count_down();
                        });
                    }
                    // Barrier: the batch must finish before the loop reads
                    // the next deadline / advances virtual time, which is
                    // what keeps pool runs bit-identical to inline runs.
                    latch.wait();
                    // Let the workers retire their loop iterations too
                    // (the per-job metrics are recorded after the latch),
                    // so a snapshot taken between turns is complete. The
                    // loop is the pool's only submitter, making the brief
                    // spin sound.
                    pool.wait_idle();
                    self.timers.retain(|_, s| !s.retired.load(Ordering::SeqCst));
                }
            }
        }
        self.scratch = expired;
        !self.timers.is_empty()
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
            .field("timers", &self.timers.len())
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

    fn pooled_loop(workers: usize, shards: usize) -> EventLoop {
        let mut el = EventLoop::new_virtual();
        el.dispatch_to_pool_sharded(Arc::new(WorkerPool::new(workers)), shards);
        el
    }

    #[test]
    fn pool_dispatch_fires_expected_counts() {
        let mut el = pooled_loop(4, 16);
        let n = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let n2 = n.clone();
            el.add_timer(Duration::from_millis(5), move |_| {
                n2.fetch_add(1, Ordering::SeqCst);
                TimerAction::Continue
            });
        }
        el.run_for(Duration::from_millis(50));
        assert_eq!(n.load(Ordering::SeqCst), 64 * 10);
        assert_eq!(el.timer_count(), 64);
    }

    #[test]
    fn pool_dispatch_preserves_per_key_order() {
        // Two timers under ONE key must interleave exactly as inline
        // dispatch would: sequential, in deadline order.
        let run = |pool: bool| {
            let mut el = EventLoop::new_virtual();
            if pool {
                el.dispatch_to_pool_sharded(Arc::new(WorkerPool::new(4)), 8);
            }
            let log = Arc::new(Mutex::new(Vec::new()));
            let (l1, l2) = (log.clone(), log.clone());
            el.add_timer_keyed(7, Duration::from_millis(2), move |_| {
                l1.lock().push('a');
                TimerAction::Continue
            });
            el.add_timer_keyed(7, Duration::from_millis(3), move |_| {
                l2.lock().push('b');
                TimerAction::Continue
            });
            el.run_for(Duration::from_millis(12));
            let out = log.lock().clone();
            out
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn pool_dispatch_isolates_panics() {
        let mut el = pooled_loop(2, 8);
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        el.add_timer(Duration::from_millis(2), |_| panic!("bad vertex"));
        el.add_timer(Duration::from_millis(1), move |_| {
            n2.fetch_add(1, Ordering::SeqCst);
            TimerAction::Continue
        });
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        el.run_for(Duration::from_millis(10));
        std::panic::set_hook(hook);
        assert_eq!(el.callback_panics(), 1);
        assert_eq!(el.timer_count(), 1);
        assert_eq!(n.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn pool_dispatch_external_cancel_reaps_timer() {
        let mut el = pooled_loop(2, 4);
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        let ctl = el.add_timer(Duration::from_millis(1), move |_| {
            n2.fetch_add(1, Ordering::SeqCst);
            TimerAction::Continue
        });
        el.run_for(Duration::from_millis(2));
        ctl.cancel();
        el.run_for(Duration::from_millis(10));
        assert_eq!(n.load(Ordering::SeqCst), 2);
        assert_eq!(el.timer_count(), 0);
    }

    #[test]
    fn pool_dispatch_is_deterministic_and_matches_inline() {
        // Per-timer sample logs must be identical across pool runs and
        // equal to the inline run: virtual time is frozen during each
        // batch and every timer owns its own lane-ordered log.
        let run = |pool: bool| -> Vec<Vec<(usize, Nanos)>> {
            let mut el = EventLoop::new_virtual();
            if pool {
                el.dispatch_to_pool_sharded(Arc::new(WorkerPool::new(4)), 16);
            }
            let logs: Vec<_> = (0..16).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
            for (i, log) in logs.iter().enumerate() {
                let log = Arc::clone(log);
                let clock = el.clock().clone();
                let seq = Arc::new(AtomicUsize::new(0));
                el.add_timer_keyed(i as u64, Duration::from_millis(1 + (i as u64 % 5)), {
                    move |_| {
                        let s = seq.fetch_add(1, Ordering::SeqCst);
                        log.lock().push((s, clock.now()));
                        TimerAction::Continue
                    }
                });
            }
            el.run_for(Duration::from_millis(40));
            logs.iter().map(|l| l.lock().clone()).collect()
        };
        let inline = run(false);
        let pooled_a = run(true);
        let pooled_b = run(true);
        assert_eq!(pooled_a, pooled_b);
        assert_eq!(pooled_a, inline);
    }

    #[test]
    fn pool_dispatch_instrumented_counts_fires_and_panics() {
        let mut el = pooled_loop(2, 8);
        let reg = apollo_obs::Registry::new();
        el.instrument(&reg);
        el.worker_pool().unwrap().instrument(&reg);
        el.add_timer(Duration::from_millis(1), |_| TimerAction::Continue);
        el.add_timer(Duration::from_millis(3), |_| panic!("bad hook"));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        el.run_for(Duration::from_millis(5));
        std::panic::set_hook(hook);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("runtime.timer.fires"), 6);
        assert_eq!(snap.counter("runtime.timer.panics"), 1);
        assert_eq!(snap.histograms["runtime.timer.callback_ns"].count, 2);
        // Every turn's batch went through the pool.
        assert!(snap.histograms["runtime.pool.exec_ns"].count >= 5);
        assert!(snap.gauges.contains_key("runtime.pool.queued"));
    }

    #[test]
    fn dispatch_inline_reverts_pool_mode() {
        let mut el = pooled_loop(2, 4);
        assert!(el.worker_pool().is_some());
        el.dispatch_inline();
        assert!(el.worker_pool().is_none());
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        el.add_timer(Duration::from_millis(1), move |_| {
            n2.fetch_add(1, Ordering::SeqCst);
            TimerAction::Continue
        });
        el.run_for(Duration::from_millis(3));
        assert_eq!(n.load(Ordering::SeqCst), 3);
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
        for pooled in [false, true] {
            let mut el = if pooled { pooled_loop(2, 4) } else { EventLoop::new_virtual() };
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
            assert_eq!(*log.lock(), [5 * MS, 10 * MS], "pooled: {pooled}");
        }
    }

    #[test]
    fn cancel_reaps_a_parked_timer() {
        for pooled in [false, true] {
            let mut el = if pooled { pooled_loop(2, 4) } else { EventLoop::new_virtual() };
            let (ctl, log) = parking(&mut el, 5);
            el.run_for(Duration::from_millis(20));
            ctl.cancel();
            assert_eq!(el.timer_count(), 1);
            assert!(!el.turn(), "the next turn reaps it");
            assert_eq!(el.timer_count(), 0, "pooled: {pooled}");
            assert_eq!(log.lock().len(), 1, "the reap runs no callback");
        }
    }
}
