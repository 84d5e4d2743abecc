//! # desim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the NCAP reproduction: a minimal,
//! fully deterministic discrete-event simulation (DES) kernel. Every other
//! crate in the workspace (CPU, NIC, network, kernel, applications) is a
//! passive state machine driven by events scheduled through this engine.
//!
//! Determinism is a hard requirement: a simulation run must be a pure
//! function of its configuration and seed so experiments are reproducible
//! and debuggable. Two mechanisms guarantee it:
//!
//! * [`EventQueue`] orders events by `(time, insertion sequence)`, so
//!   simultaneous events always fire in the order they were scheduled.
//!   Its binary heap holds only 24-byte `(time, seq, slot)` keys; the
//!   events wait in a slot slab beside it, so a sift never copies an
//!   event, whatever its size.
//! * [`SplitMix64`] is the only source of randomness: a tiny,
//!   dependency-free deterministic RNG that every layer seeds from the
//!   experiment configuration, from internal jitter up to workload
//!   arrival processes.
//!
//! ## Example
//!
//! ```
//! use desim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_us(5), "second");
//! q.push(SimTime::ZERO, "first");
//! assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod idmap;
pub mod profiler;
pub mod queue;
pub mod rng;
pub mod runner;
pub mod time;
pub mod timer;

pub use config::ConfigError;
pub use idmap::{IdHasher, IdMap, IdSet};
pub use profiler::{ClassStats, Profile, PROFILE_BUCKETS};
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use runner::{EventHandler, RunOutcome, Simulation};
pub use time::{SimDuration, SimTime};
pub use timer::TimerSlot;
