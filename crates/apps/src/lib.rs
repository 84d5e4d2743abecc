//! # oldi-apps — on-line data-intensive application models and clients
//!
//! The paper evaluates two OLDI applications "with notably different
//! characteristics" (§5): **Apache**, an IO-intensive web server that
//! "frequently retrieves a large amount of data from a storage device",
//! and **Memcached**, a memory-bound key-value store that "retrieves
//! mostly small values from main memory". This crate provides calibrated
//! models of both behind the kernel's [`oskernel::ServerApp`] trait, plus
//! the open-loop bursty clients the methodology prescribes (to avoid
//! client-side queueing bias and inter-burst dependencies, citing
//! Treadmill).
//!
//! Calibration (see DESIGN.md §6): on the four-core 3.1 GHz server the
//! Apache model saturates around ~68 K requests/s and the Memcached model
//! around ~2.1× that, matching the ratio the paper reports.
//!
//! ## Example
//!
//! ```
//! use oldi_apps::{ApacheApp, ClientConfig, OpenLoopClient};
//! use oskernel::ServerApp;
//! use netsim::packet::NodeId;
//! use desim::{SimTime, SimDuration};
//!
//! let mut client = OpenLoopClient::new(ClientConfig::apache(
//!     NodeId(1), NodeId(0), 100, SimDuration::from_ms(5), 42));
//! let mut frames = Vec::new();
//! let next = client.next_burst(SimTime::ZERO, &mut frames);
//! assert_eq!(frames.len(), 100);
//! assert!(next > SimTime::ZERO);
//! ```

pub mod apache;
pub mod client;
pub mod memcached;

pub use apache::ApacheApp;
pub use client::{ClientConfig, OpenLoopClient, ResponseTracker, Workload};
pub use memcached::MemcachedApp;
