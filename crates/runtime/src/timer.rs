//! The event loop's timer queue.
//!
//! [`TimerHeap`] is a binary min-heap keyed by deadline: O(log n)
//! insert/pop with minimal constant factors (a node hosts tens of hooks,
//! not millions). It is a plain data structure; thread-safety is layered
//! on by the [`crate::event_loop::EventLoop`].

use crate::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier for a scheduled timer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u64);

/// An expired timer popped from a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired {
    /// The entry that expired.
    pub id: EntryId,
    /// The deadline it was scheduled for (not the pop time).
    pub deadline: Nanos,
}

/// Min-heap timer queue.
#[derive(Debug, Default)]
pub struct TimerHeap {
    // Reverse for a min-heap; ties broken by EntryId for determinism.
    heap: BinaryHeap<Reverse<(Nanos, EntryId)>>,
}

impl TimerHeap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `id` to fire at `deadline`. Re-inserting an id that is
    /// already queued is allowed and yields two independent expirations
    /// (cancellation is handled a level up, in the event loop).
    pub fn insert(&mut self, id: EntryId, deadline: Nanos) {
        self.heap.push(Reverse((deadline, id)));
    }

    /// Pop every entry with `deadline <= now`, in deadline order.
    pub fn pop_expired(&mut self, now: Nanos, out: &mut Vec<Expired>) {
        while let Some(Reverse((deadline, id))) = self.heap.peek().copied() {
            if deadline > now {
                break;
            }
            self.heap.pop();
            out.push(Expired { id, deadline });
        }
    }

    /// Earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse((d, _))| *d)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut TimerHeap, now: Nanos) -> Vec<Expired> {
        let mut out = Vec::new();
        q.pop_expired(now, &mut out);
        out
    }

    #[test]
    fn heap_basic() {
        let mut q = TimerHeap::new();
        assert!(q.is_empty());
        q.insert(EntryId(1), 5_000);
        q.insert(EntryId(2), 2_000);
        q.insert(EntryId(3), 9_000);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_deadline(), Some(2_000));

        let fired = drain(&mut q, 5_000);
        assert_eq!(fired.iter().map(|e| e.id).collect::<Vec<_>>(), vec![EntryId(2), EntryId(1)]);
        assert_eq!(q.len(), 1);

        let fired = drain(&mut q, 100_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].id, EntryId(3));
        assert!(q.is_empty());
    }

    #[test]
    fn heap_nothing_expired_before_deadline() {
        let mut q = TimerHeap::new();
        q.insert(EntryId(1), 10_000);
        assert!(drain(&mut q, 9_999).is_empty());
        assert_eq!(drain(&mut q, 10_000).len(), 1);
    }

    #[test]
    fn deadline_ties_are_deterministic() {
        let mut h = TimerHeap::new();
        h.insert(EntryId(2), 100);
        h.insert(EntryId(1), 100);
        let fired = drain(&mut h, 100);
        assert_eq!(fired.iter().map(|e| e.id).collect::<Vec<_>>(), vec![EntryId(1), EntryId(2)]);
    }

    /// The reference the heap is held to: every pending `(deadline, id)`
    /// in a `Vec` kept sorted, expired entries split off the front.
    fn model_drain(model: &mut Vec<(Nanos, EntryId)>, now: Nanos) -> Vec<(Nanos, EntryId)> {
        model.sort_unstable();
        let due = model.partition_point(|&(d, _)| d <= now);
        model.drain(..due).collect()
    }

    #[test]
    fn heap_agrees_with_sorted_vec_model_on_random_workload() {
        // Deterministic LCG so the test needs no external crate.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 16
        };
        // Deadlines land on a 1 µs grid so ties (broken by id) are common.
        const GRID: Nanos = 1_000;
        let mut heap = TimerHeap::new();
        let mut model: Vec<(Nanos, EntryId)> = Vec::new();
        for i in 0..500u64 {
            let d = (next() % 50_000_000) / GRID * GRID;
            heap.insert(EntryId(i), d);
            model.push((d, EntryId(i)));
        }
        let mut next_id = 500u64;
        let mut now: Nanos = 0;
        let mut popped = 0;
        let mut inserted = 500usize;
        // Randomized pop cadence: mostly sub-millisecond steps, with
        // occasional multi-second idle gaps, plus re-inserts during the
        // drain so freshly popped work immediately re-arms (the event
        // loop's actual access pattern).
        while now < 120_000_000_000 && !heap.is_empty() {
            let gap = match next() % 10 {
                0..=5 => next() % 2_000_000 + GRID, // ≤2ms
                6..=8 => next() % 300_000_000,      // ≤0.3s
                _ => next() % 5_000_000_000,        // ≤5s gap
            };
            now += gap / GRID * GRID;
            let fired = drain(&mut heap, now);
            assert_eq!(
                fired.iter().map(|e| (e.deadline, e.id)).collect::<Vec<_>>(),
                model_drain(&mut model, now),
                "divergence at now={now}"
            );
            popped += fired.len();
            // Re-insert on a third of pops while the batch is "draining",
            // bounded so the workload terminates.
            if inserted < 2_000 {
                for e in &fired {
                    if next() % 3 == 0 {
                        let ahead = next() % 10_000_000_000 + GRID;
                        let d = (e.deadline.max(now) + ahead) / GRID * GRID;
                        heap.insert(EntryId(next_id), d);
                        model.push((d, EntryId(next_id)));
                        next_id += 1;
                        inserted += 1;
                    }
                }
            }
            assert_eq!(heap.len(), model.len());
            assert_eq!(
                heap.next_deadline(),
                model.iter().map(|&(d, _)| d).min(),
                "peek divergence at {now}"
            );
        }
        // Final drain far in the future catches anything left behind.
        let fired = drain(&mut heap, u64::MAX / 2);
        assert_eq!(
            fired.iter().map(|e| (e.deadline, e.id)).collect::<Vec<_>>(),
            model_drain(&mut model, u64::MAX / 2)
        );
        popped += fired.len();
        assert_eq!(popped, inserted);
        assert!(heap.is_empty() && model.is_empty());
    }
}
