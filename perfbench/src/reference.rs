//! A fixed reference job, timed beside every experiment so that host
//! speed cancels out of the reported host times.
//!
//! The host's cores run faster or slower for seconds at a time as other
//! tenants come and go, and the simulator slows with them. The job slows
//! the same way because it does the two kinds of work the simulator's
//! host time goes to: an event loop that pops and pushes a binary heap of
//! pending events and touches a random slot of a 4 MiB table for each,
//! like the event queue and node state; and a run queue of 1,500 jobs
//! rescanned for the first one whose core is idle, like the kernel's
//! dispatch. Memory-bound and scan-bound code slow by different factors,
//! and the mix tracks every workload better than either part alone. The
//! job shares no code with the simulator, so a change to the simulator
//! moves only the numerator of the ratio.
//!
//! Reported times are in seconds at the reference speed: on a core that
//! runs the job in [`REFERENCE_SECONDS`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Events pending in the heap throughout.
const PENDING: u64 = 1 << 15;
/// Events popped and rescheduled per job.
const STEPS: usize = 75_000;
/// Slots of the table the events touch (4 MiB of `u64`).
const SLOTS: usize = 1 << 19;
/// Jobs in the run queue throughout.
const QUEUED: u64 = 1_500;
/// Cores the queued jobs are dispatched to.
const CORES: usize = 4;
/// Dispatch rounds per job.
const ROUNDS: usize = 12_500;

/// The job's duration at the reference speed. It is near the job's
/// median on the host whose results `README.md` gives, so reported times
/// read close to that host's wall times.
pub const REFERENCE_SECONDS: f64 = 0.025;

/// `host_s`, measured while the job took `job_s`, at the reference speed.
pub fn at_reference_speed(host_s: f64, job_s: f64) -> f64 {
    host_s / job_s * REFERENCE_SECONDS
}

/// Runs the job once and returns its host seconds. The work is the same
/// on every call: the generator's seed is a constant.
pub fn run() -> f64 {
    let start = Instant::now();
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    black_box(event_loop(&mut rng));
    black_box(dispatch(&mut rng));
    start.elapsed().as_secs_f64()
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn event_loop(rng: &mut XorShift) -> u64 {
    let mut table = vec![0u64; SLOTS];
    let mut heap = BinaryHeap::with_capacity(PENDING as usize);
    for id in 0..PENDING {
        heap.push(Reverse((rng.next() % 1_000_000, id)));
    }
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let Some(Reverse((t, id))) = heap.pop() else {
            break;
        };
        let slot = rng.next() as usize % SLOTS;
        table[slot] = table[slot].wrapping_add(t ^ id);
        acc = acc.wrapping_add(table[(slot * 7 + 1) % SLOTS]);
        heap.push(Reverse((t + 1 + rng.next() % 100_000, id)));
    }
    acc
}

/// A queued job: pinned to one core (two in three) or to any.
struct Job {
    affinity: Option<usize>,
    id: u64,
    cost: u64,
}

impl Job {
    fn new(rng: &mut XorShift, id: u64) -> Job {
        let r = rng.next();
        let affinity = (!r.is_multiple_of(3)).then_some(r as usize / 3 % CORES);
        Job {
            affinity,
            id,
            cost: r,
        }
    }
}

/// Each round leaves one core idle half the time and none otherwise, so
/// a scan either stops at the first job that fits or reads the whole
/// queue.
fn dispatch(rng: &mut XorShift) -> u64 {
    let mut queue: VecDeque<Job> = (0..QUEUED).map(|id| Job::new(rng, id)).collect();
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        let mut idle = [false; CORES];
        let r = rng.next();
        if r.is_multiple_of(2) {
            idle[(r >> 8) as usize % CORES] = true;
        }
        let pick = queue.iter().position(|j| match j.affinity {
            Some(c) => idle[c],
            None => idle.contains(&true),
        });
        if let Some(job) = pick.and_then(|i| queue.remove(i)) {
            acc = acc.wrapping_add(job.cost ^ job.id);
            queue.push_back(Job::new(rng, job.id));
        }
    }
    acc
}
