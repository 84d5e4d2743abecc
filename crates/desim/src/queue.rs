//! The time-ordered event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a priority queue keyed by `(SimTime, sequence)`. The
//! sequence number is a monotonically increasing insertion counter, so two
//! events scheduled for the same instant are delivered in scheduling order.
//! This tie-break is what makes whole-simulation runs bit-reproducible.
//!
//! The queue is a `std::collections::BinaryHeap` min-heap of 24-byte
//! `(time, seq, slot)` keys. The events themselves wait in a slot slab
//! beside it — a `Vec<Option<E>>` plus a LIFO free list of slot indices —
//! so a sift moves keys only, however large `E` is. Counters make the
//! queue auditable: `total_pushed == total_popped + total_cleared + len`
//! at every instant, and every slab slot is either pending or free.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled key: the event waits in `slots[slot]`. The derived
/// comparisons below are *reversed* so a `BinaryHeap<Entry>` acts as a
/// min-heap.
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the earliest (time, seq) is the heap maximum.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events of type `E` are scheduled at absolute [`SimTime`] instants and
/// popped in non-decreasing time order, with FIFO delivery among events at
/// the same instant.
///
/// # Example
///
/// ```
/// use desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_us(1), 'b');
/// q.push(SimTime::from_us(1), 'c'); // same time: FIFO after 'b'
/// q.push(SimTime::ZERO, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    /// The slot slab: `Some` for every pending event, `None` for every
    /// slot on `free`.
    slots: Vec<Option<E>>,
    /// Empty slots, reused last-freed first.
    free: Vec<u32>,
    /// Events ever pushed; doubles as the next entry's FIFO sequence
    /// number (never reset, so FIFO stays monotonic across a clear).
    pushed: u64,
    popped: u64,
    cleared: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            pushed: 0,
            popped: 0,
            cleared: 0,
        }
    }

    /// Schedules `event` at absolute instant `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.pushed;
        self.pushed += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slots.len()).expect("more than u32::MAX pending events");
                self.slots.push(Some(event));
                slot
            }
        };
        self.heap.push(Entry { time, seq, slot });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { time, slot, .. } = self.heap.pop()?;
        let event = self.slots[slot as usize]
            .take()
            .expect("pending key points at an empty slot");
        self.free.push(slot);
        self.popped += 1;
        Some((time, event))
    }

    /// Pops every event scheduled at or before `bound` — at most `max`
    /// of them — appending `(time, event)` pairs to `out`. Returns the
    /// number of events popped. Used by the simulation driver to drain
    /// same-instant batches with one queue traversal.
    pub fn pop_batch_until(
        &mut self,
        bound: SimTime,
        max: usize,
        out: &mut Vec<(SimTime, E)>,
    ) -> usize {
        let mut n = 0;
        while n < max {
            match self.peek_time() {
                Some(t) if t <= bound => {}
                _ => break,
            }
            let item = self.pop().expect("peeked entry vanished");
            out.push(item);
            n += 1;
        }
        n
    }

    /// The instant of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled on this queue.
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events ever delivered from this queue.
    #[must_use]
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Total events ever dropped by [`clear`](Self::clear). Together with
    /// the other counters this closes the conservation identity
    /// `total_pushed == total_popped + total_cleared + len`.
    #[must_use]
    pub fn total_cleared(&self) -> u64 {
        self.cleared
    }

    /// Audits the queue's conservation identity
    /// `total_pushed == total_popped + total_cleared + len` and its slab
    /// ledger `slots == len + free` (every slot is pending or free). A
    /// pure O(1) observation — safe to call at any instant, including
    /// mid-run.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance if either identity is
    /// broken (which would indicate a bug in the queue itself, not the
    /// model).
    pub fn audit(&self) -> Result<(), String> {
        let resolved = self.popped + self.cleared + self.len() as u64;
        if self.pushed != resolved {
            return Err(format!(
                "event-queue ledger broken: pushed {} != popped {} + cleared {} + pending {}",
                self.pushed,
                self.popped,
                self.cleared,
                self.len()
            ));
        }
        if self.slots.len() != self.len() + self.free.len() {
            return Err(format!(
                "event-queue slab broken: {} slots != pending {} + free {}",
                self.slots.len(),
                self.len(),
                self.free.len()
            ));
        }
        Ok(())
    }

    /// Drops all pending events. The dropped count moves to
    /// [`total_cleared`](Self::total_cleared), so the conservation
    /// identity keeps holding; the sequence counter is untouched (FIFO
    /// ordering stays globally monotonic across a clear).
    pub fn clear(&mut self) {
        self.cleared += self.len() as u64;
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("pushed", &self.pushed)
            .field("popped", &self.popped)
            .field("cleared", &self.cleared)
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use check::{ensure, gen, Check, Rng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(30), 3);
        q.push(SimTime::from_us(10), 1);
        q.push(SimTime::from_us(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_us(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_us(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_us(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_us(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
        }
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        q.push(SimTime::ZERO, 1);
        let _ = q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2);
    }

    /// The PR-3/4-style ledger for the queue itself:
    /// `pushed == popped + cleared + pending`, including across `clear`
    /// (which used to leave `len()` and the push/pop counters telling
    /// different stories).
    #[test]
    fn clear_preserves_conservation_identity() {
        let mut q = EventQueue::new();
        let identity = |q: &EventQueue<u64>| {
            assert_eq!(
                q.total_pushed(),
                q.total_popped() + q.total_cleared() + q.len() as u64,
                "conservation identity violated: {q:?}"
            );
        };
        for i in 0..10 {
            q.push(SimTime::from_us(i), i);
        }
        identity(&q);
        let _ = q.pop();
        let _ = q.pop();
        identity(&q);
        q.clear();
        assert_eq!(q.total_cleared(), 8);
        identity(&q);
        // The queue stays usable after a clear, and the sequence
        // counter keeps FIFO monotonic across it.
        q.push(SimTime::from_us(1), 100);
        q.push(SimTime::from_us(1), 101);
        identity(&q);
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 100)));
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 101)));
        identity(&q);
        q.clear();
        identity(&q);
        assert_eq!(q.total_cleared(), 8);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(1), 7);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_batch_until_respects_bound_and_cap() {
        let mut q = EventQueue::new();
        for i in 0..6 {
            q.push(SimTime::from_us(10), i);
        }
        q.push(SimTime::from_us(20), 100);
        let mut out = Vec::new();
        // Cap smaller than the batch: exactly `max` events come out.
        assert_eq!(q.pop_batch_until(SimTime::from_us(10), 4, &mut out), 4);
        assert_eq!(out.len(), 4);
        // Remainder of the same instant, bound excludes the 20us event.
        assert_eq!(q.pop_batch_until(SimTime::from_us(10), 100, &mut out), 2);
        let ids: Vec<u64> = out.iter().map(|&(_, e)| e).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 5], "FIFO preserved through batches");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(20)));
    }

    #[test]
    fn far_future_outliers_pop_in_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // A dense near-term population plus outliers ten seconds out.
        for i in 0..100 {
            q.push(SimTime::from_nanos(i * 100), i);
        }
        for i in 0..10 {
            q.push(SimTime::from_ms(10_000 + i), 1_000 + i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "time went backwards at {t}");
            last = t;
            seen += 1;
        }
        assert_eq!(seen, 110);
    }

    #[test]
    fn same_instant_flood_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5_000u64 {
            q.push(SimTime::from_us(3), i);
        }
        for i in 0..5_000u64 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
        }
    }

    /// The heap sifts keys only: an event never moves back into it, so
    /// an entry stays 24 bytes whatever the event type.
    #[test]
    fn heap_entry_is_a_24_byte_key() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        let rendered = format!("{q:?}");
        assert!(rendered.contains("pending"));
        assert!(rendered.contains("cleared"));
    }

    /// Invariant `event-queue FIFO-tie ordering`: delivery is
    /// non-decreasing in time, and FIFO among events at equal times.
    #[test]
    fn prop_delivery_order() {
        Check::new("event_queue_fifo_tie_ordering").run(
            |rng, size| gen::vec_with(rng, size, 1, 200, |r| r.next_below(1_000)),
            |times| {
                let mut q = EventQueue::new();
                for (idx, &t) in times.iter().enumerate() {
                    q.push(SimTime::ZERO + SimDuration::from_nanos(t), idx);
                }
                let mut last: Option<(SimTime, usize)> = None;
                while let Some((t, idx)) = q.pop() {
                    if let Some((lt, lidx)) = last {
                        ensure!(t >= lt, "time went backwards");
                        if t == lt {
                            ensure!(idx > lidx, "FIFO violated at equal times");
                        }
                    }
                    last = Some((t, idx));
                }
                Ok(())
            },
        );
    }

    /// One operation of [`prop_interleaved`].
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push at the latest popped time plus this many nanoseconds.
        Push(u64),
        Pop,
        Peek,
        /// Pop up to `max` events at or before the earliest pending
        /// time plus `slack` nanoseconds.
        PopBatch {
            slack: u64,
            max: usize,
        },
        Clear,
    }

    fn gen_op(rng: &mut Rng) -> Op {
        match rng.next_below(100) {
            // Offsets 0–3 make same-instant ties common; the rare
            // hour-scale offset plants far-future outliers.
            0..=24 => Op::Push(rng.next_below(4)),
            25..=44 => Op::Push(rng.next_below(10_000)),
            45..=47 => Op::Push(3_600_000_000_000 + rng.next_below(1 << 30)),
            48..=72 => Op::Pop,
            73..=82 => Op::Peek,
            83..=97 => Op::PopBatch {
                slack: rng.next_below(3),
                max: 1 + rng.next_below(16) as usize,
            },
            _ => Op::Clear,
        }
    }

    /// Model-based property: random interleavings of push, pop, peek,
    /// `pop_batch_until` and `clear` run against a plain `Vec` that
    /// pops the minimum by `(time, push ordinal)`. Every popped item,
    /// `peek_time`, `len`, counter and `audit()` must match the model
    /// after every operation, and the slot slab must stay exact: each
    /// pending key's slot holds an event, each free slot is empty, and
    /// the slab never outgrows the largest pending count seen.
    #[test]
    fn prop_interleaved() {
        Check::new("event_queue_matches_vec_model")
            .max_size(400)
            .run(
                |rng, size| gen::vec_with(rng, size, 1, 400, gen_op),
                |ops| {
                    let mut q: EventQueue<u64> = EventQueue::new();
                    // Pending `(time, push ordinal)` pairs; the ordinal is
                    // also the event payload, so the FIFO tie-break shows.
                    let mut model: Vec<(SimTime, u64)> = Vec::new();
                    let model_pop = |m: &mut Vec<(SimTime, u64)>| {
                        let i = (0..m.len()).min_by_key(|&i| m[i])?;
                        Some(m.remove(i))
                    };
                    let (mut pushed, mut popped, mut cleared) = (0u64, 0u64, 0u64);
                    let mut clock = SimTime::ZERO;
                    let mut batch = Vec::new();
                    let mut max_pending = 0;
                    for (step, &op) in ops.iter().enumerate() {
                        match op {
                            Op::Push(offset) => {
                                let at = clock + SimDuration::from_nanos(offset);
                                q.push(at, pushed);
                                model.push((at, pushed));
                                pushed += 1;
                            }
                            Op::Pop => {
                                let got = q.pop();
                                let want = model_pop(&mut model);
                                ensure!(got == want, "step {step}: pop {got:?}, model {want:?}");
                                if let Some((t, _)) = got {
                                    popped += 1;
                                    clock = t;
                                }
                            }
                            Op::Peek => {}
                            Op::PopBatch { slack, max } => {
                                let bound = model.iter().min().map_or(clock, |&(t, _)| t)
                                    + SimDuration::from_nanos(slack);
                                batch.clear();
                                let n = q.pop_batch_until(bound, max, &mut batch);
                                let mut want = Vec::new();
                                while want.len() < max && model.iter().any(|&(t, _)| t <= bound) {
                                    want.extend(model_pop(&mut model));
                                }
                                ensure!(
                                    n == want.len() && batch == want,
                                    "step {step}: batch {batch:?} ({n}), model {want:?}"
                                );
                                popped += n as u64;
                                if let Some(&(t, _)) = batch.last() {
                                    clock = t;
                                }
                            }
                            Op::Clear => {
                                q.clear();
                                cleared += model.len() as u64;
                                model.clear();
                            }
                        }
                        let want_peek = model.iter().min().map(|&(t, _)| t);
                        ensure!(
                            q.peek_time() == want_peek,
                            "step {step} ({op:?}): peek {:?}, model {want_peek:?}",
                            q.peek_time()
                        );
                        ensure!(
                            q.len() == model.len(),
                            "step {step}: len {}, model {}",
                            q.len(),
                            model.len()
                        );
                        ensure!(
                            (q.total_pushed(), q.total_popped(), q.total_cleared())
                                == (pushed, popped, cleared),
                            "step {step}: counters {q:?}, model ({pushed}, {popped}, {cleared})"
                        );
                        ensure!(q.audit().is_ok(), "step {step}: {:?}", q.audit());
                        max_pending = max_pending.max(model.len());
                        ensure!(
                            q.heap.iter().all(|k| q.slots.get(k.slot as usize).is_some_and(Option::is_some)),
                            "step {step}: a pending key points at a missing or empty slot"
                        );
                        ensure!(
                            q.free.iter().all(|&f| q.slots.get(f as usize).is_some_and(Option::is_none)),
                            "step {step}: a free slot is missing or still holds an event"
                        );
                        ensure!(
                            q.slots.len() <= max_pending,
                            "step {step}: slab holds {} slots, pending never exceeded {max_pending}",
                            q.slots.len()
                        );
                    }
                    Ok(())
                },
            );
    }
}
