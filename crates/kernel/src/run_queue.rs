//! The scheduler's run queue, indexed by affinity.
//!
//! Logically the run queue is one FIFO: interrupt service routines jump
//! to its front, everything else joins its back, and the dispatcher
//! hands each idle core the *first* entry that may run there. Stored as
//! that single deque, every pick rescans it from the front and removes
//! from the middle — O(depth × cores) per pick, and bursty workloads
//! back it up to well over a thousand entries.
//!
//! [`RunQueue`] stores the same FIFO split by class instead: one FIFO per
//! core for pinned work and one for unpinned work. Every entry carries a
//! sequence number — `push_front` hands out ever-smaller numbers,
//! `push_back` ever-larger ones — so the numbers order entries exactly as
//! the single deque would, and each class FIFO is sorted by them. The
//! first eligible entry of the single deque is therefore the eligible
//! class head with the lowest sequence number, which takes O(cores) to
//! find.

use crate::work::Work;
use std::collections::VecDeque;

/// An entry's place in the logical FIFO: lower runs first.
type Seq = i64;

/// Queued kernel and application work, one FIFO per affinity class.
#[derive(Debug)]
pub(crate) struct RunQueue {
    /// Work pinned to each core, indexed by core.
    pinned: Vec<VecDeque<(Seq, Work)>>,
    /// Work any non-poll core may run.
    unpinned: VecDeque<(Seq, Work)>,
    /// The sequence number the last `push_front` used.
    front: Seq,
    /// The sequence number the next `push_back` uses.
    back: Seq,
    len: usize,
}

impl RunQueue {
    /// An empty queue for a node with `cores` cores.
    pub(crate) fn new(cores: usize) -> Self {
        RunQueue {
            pinned: std::iter::repeat_with(VecDeque::new).take(cores).collect(),
            unpinned: VecDeque::new(),
            front: 0,
            back: 0,
            len: 0,
        }
    }

    /// Entries queued, across every class.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn class(&mut self, work: &Work) -> &mut VecDeque<(Seq, Work)> {
        match work.affinity {
            Some(c) => &mut self.pinned[c as usize],
            None => &mut self.unpinned,
        }
    }

    /// Queues `work` ahead of everything already queued.
    pub(crate) fn push_front(&mut self, work: Work) {
        self.front -= 1;
        let seq = self.front;
        self.class(&work).push_front((seq, work));
        self.len += 1;
    }

    /// Queues `work` behind everything already queued.
    pub(crate) fn push_back(&mut self, work: Work) {
        let seq = self.back;
        self.back += 1;
        self.class(&work).push_back((seq, work));
        self.len += 1;
    }

    /// Removes the first entry, in FIFO order, that an idle core may run,
    /// and returns it with that core. Pinned work runs only on its own
    /// core; unpinned work runs on the highest idle core at or above
    /// `floor` (the busy-poll cores below it take no application work).
    pub(crate) fn pop_dispatch(
        &mut self,
        idle: impl Fn(usize) -> bool,
        floor: usize,
    ) -> Option<(Work, usize)> {
        if self.len == 0 {
            return None;
        }
        // The lowest-numbered pinned head whose core is idle...
        let mut pinned: Option<(Seq, usize)> = None;
        for (ci, q) in self.pinned.iter().enumerate() {
            if let Some(&(seq, _)) = q.front() {
                if pinned.is_none_or(|(best, _)| seq < best) && idle(ci) {
                    pinned = Some((seq, ci));
                }
            }
        }
        // ...unless the unpinned head is older and has a core to run on.
        let unpinned = match self.unpinned.front() {
            Some(&(seq, _)) if pinned.is_none_or(|(best, _)| seq < best) => {
                (floor..self.pinned.len()).rev().find(|&ci| idle(ci))
            }
            _ => None,
        };
        let (q, ci) = match (unpinned, pinned) {
            (Some(ci), _) => (&mut self.unpinned, ci),
            (None, Some((_, ci))) => (&mut self.pinned[ci], ci),
            (None, None) => return None,
        };
        let (_, work) = q.pop_front().expect("picked head exists");
        self.len -= 1;
        Some((work, ci))
    }

    /// Fills `wake` with the cores to wake for what stays queued, in wake
    /// order: asleep cores with pinned work first, by the FIFO position of
    /// their oldest entry, then one asleep core per unpinned entry in
    /// ascending core order. `wake` never holds more than one entry per
    /// core, so a buffer reused across calls never reallocates.
    pub(crate) fn wake_order(&self, asleep: impl Fn(usize) -> bool, wake: &mut Vec<usize>) {
        wake.clear();
        if self.len == 0 {
            return;
        }
        let head = |ci: usize| self.pinned[ci].front().map(|&(seq, _)| seq);
        for (ci, q) in self.pinned.iter().enumerate() {
            let Some(&(seq, _)) = q.front() else {
                continue;
            };
            if asleep(ci) {
                let at = wake
                    .iter()
                    .position(|&w| head(w).is_some_and(|s| s > seq))
                    .unwrap_or(wake.len());
                wake.insert(at, ci);
            }
        }
        let mut unpinned = self.unpinned.len();
        for ci in 0..self.pinned.len() {
            if unpinned == 0 {
                break;
            }
            if asleep(ci) && !wake.contains(&ci) {
                wake.push(ci);
                unpinned -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::WorkKind;
    use check::{ensure_eq, gen, Check};

    /// The scheduler as a linear scan over one deque — what the kernel
    /// ran before the queue was indexed by affinity, kept as the oracle
    /// [`RunQueue`] must match pick for pick and wake for wake.
    #[derive(Default)]
    struct Oracle {
        queue: VecDeque<Work>,
    }

    impl Oracle {
        fn pop_dispatch(
            &mut self,
            idle: impl Fn(usize) -> bool,
            floor: usize,
            cores: usize,
        ) -> Option<(Work, usize)> {
            let mut pick = None;
            for (qi, w) in self.queue.iter().enumerate() {
                let target = match w.affinity {
                    Some(c) => idle(c as usize).then_some(c as usize),
                    None => (floor..cores).rev().find(|&ci| idle(ci)),
                };
                if let Some(ci) = target {
                    pick = Some((qi, ci));
                    break;
                }
            }
            let (qi, ci) = pick?;
            Some((self.queue.remove(qi).expect("index in range"), ci))
        }

        fn wake_order(&self, asleep: impl Fn(usize) -> bool, cores: usize) -> Vec<usize> {
            let mut wake = Vec::new();
            let mut nonaffine = 0usize;
            for w in &self.queue {
                match w.affinity {
                    Some(c) => {
                        let c = c as usize;
                        if asleep(c) && !wake.contains(&c) {
                            wake.push(c);
                        }
                    }
                    None => nonaffine += 1,
                }
            }
            for ci in 0..cores {
                if nonaffine == 0 {
                    break;
                }
                if asleep(ci) && !wake.contains(&ci) {
                    wake.push(ci);
                    nonaffine -= 1;
                }
            }
            wake
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum CoreState {
        Idle,
        Busy,
        Asleep,
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Queue work (`front`: as an ISR would), pinned or not.
        Push { front: bool, affinity: Option<u8> },
        /// Redraw every core's state, dispatch until nothing fits, then
        /// compute the wake list.
        Dispatch { states: Vec<CoreState> },
    }

    fn gen_case(rng: &mut check::Rng, size: usize) -> (usize, usize, Vec<Op>) {
        let cores = gen::usize_in(rng, 1, 9);
        let floor = gen::usize_in(rng, 0, 3.min(cores + 1));
        let ops = gen::vec_with(rng, size, 1, 400, |r| {
            if r.next_below(4) == 0 {
                let states = (0..cores)
                    .map(|_| match r.next_below(3) {
                        0 => CoreState::Idle,
                        1 => CoreState::Busy,
                        _ => CoreState::Asleep,
                    })
                    .collect();
                Op::Dispatch { states }
            } else {
                let affinity = r
                    .next_below(2)
                    .eq(&0)
                    .then(|| r.next_below(cores as u64) as u8);
                Op::Push {
                    front: r.next_below(3) == 0,
                    affinity,
                }
            }
        });
        (cores, floor, ops)
    }

    /// Under random interleavings of front and back pushes, pinned and
    /// unpinned, and dispatch rounds over random idle/busy/asleep core
    /// states with zero to two poll cores, the indexed queue picks the
    /// same `(work, core)` pairs as the linear scan, wakes the same cores
    /// in the same order, and holds the same number of entries.
    #[test]
    fn prop_matches_the_linear_scan() {
        Check::new("run_queue_matches_linear_scan")
            .max_size(400)
            .run(gen_case, |(cores, floor, ops)| {
                let (cores, floor) = (*cores, *floor);
                let mut rq = RunQueue::new(cores);
                let mut oracle = Oracle::default();
                let mut wake = Vec::new();
                for (id, op) in ops.iter().enumerate() {
                    match op {
                        Op::Push { front, affinity } => {
                            let mut w = Work::cycles(id as u64, WorkKind::Overhead);
                            w.affinity = *affinity;
                            if *front {
                                rq.push_front(w.clone());
                                oracle.queue.push_front(w);
                            } else {
                                rq.push_back(w.clone());
                                oracle.queue.push_back(w);
                            }
                        }
                        Op::Dispatch { states } => {
                            let mut states = states.clone();
                            loop {
                                let idle = |ci: usize| states[ci] == CoreState::Idle;
                                let got = rq.pop_dispatch(idle, floor);
                                let want = oracle.pop_dispatch(idle, floor, cores);
                                let got = got.map(|(w, ci)| (w.cycles, ci));
                                let want = want.map(|(w, ci)| (w.cycles, ci));
                                ensure_eq!(got, want, "step {id}: pick");
                                let Some((_, ci)) = got else { break };
                                states[ci] = CoreState::Busy;
                            }
                            let asleep = |ci: usize| states[ci] == CoreState::Asleep;
                            rq.wake_order(asleep, &mut wake);
                            ensure_eq!(wake, oracle.wake_order(asleep, cores), "step {id}: wake");
                        }
                    }
                    ensure_eq!(rq.len(), oracle.queue.len(), "step {id}: len");
                }
                Ok(())
            });
    }
}
