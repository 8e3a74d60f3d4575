//! # apollo-runtime
//!
//! A small asynchronous interval engine replacing the role *libuv* plays in
//! the original Apollo implementation (HPDC '21, §3.2.1).
//!
//! Apollo uses libuv for exactly one purpose: *"asynchronously setting and
//! manipulating intervals between monitoring hook accesses"*. This crate
//! provides that capability natively in Rust:
//!
//! * [`time`] — a pluggable time source. Experiments run against either the
//!   wall clock ([`time::RealClock`]) or a deterministic virtual clock
//!   ([`time::VirtualClock`]) so figure-regeneration is reproducible.
//! * [`timer`] — the timer queue: a deadline-ordered binary heap
//!   ([`timer::TimerHeap`]).
//! * [`event_loop`] — a libuv-style loop that drives repeating timers off
//!   that heap, lets a running callback re-program its own interval — the
//!   exact primitive the adaptive-interval module (§3.4.1) needs — or park
//!   until woken, and can run either in real time or by jumping the
//!   virtual clock between deadlines. Callbacks run on the loop thread.
//!
//! ```
//! use apollo_runtime::event_loop::{EventLoop, TimerAction};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let mut el = EventLoop::new_virtual();
//! let fired = Arc::new(AtomicUsize::new(0));
//! let f = fired.clone();
//! el.add_timer(std::time::Duration::from_millis(10), move |_ctl| {
//!     f.fetch_add(1, Ordering::SeqCst);
//!     TimerAction::Continue
//! });
//! el.run_for(std::time::Duration::from_millis(100));
//! assert_eq!(fired.load(Ordering::SeqCst), 10);
//! ```

pub mod event_loop;
pub mod time;
pub mod timer;

pub use event_loop::{EventLoop, TimerAction, TimerControl, TimerId};
pub use time::{Nanos, RealClock, VirtualClock};
