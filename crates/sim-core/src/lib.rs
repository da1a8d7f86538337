//! Deterministic discrete-event simulation primitives for the `h3cdn`
//! reproduction of *"Dissecting the Applicability of HTTP/3 in Content
//! Delivery Networks"* (ICDCS 2024).
//!
//! This crate deliberately contains no protocol or network knowledge. It
//! provides the three things every layer above it needs:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a stable priority queue of timestamped events (a
//!   binary heap on `(time, insertion seq)`),
//! * [`rng`] — seeded, splittable pseudo-random streams plus the
//!   distributions the workload model draws from.
//!
//! Everything is a pure function of its seed: two simulations constructed
//! with the same inputs produce bit-identical traces. Wall-clock time never
//! enters the crate.
//!
//! # Example
//!
//! ```
//! use h3cdn_sim_core::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(1), "a");
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(ev, "a");
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(1));
//! ```

pub mod event;
pub mod rng;
pub mod time;
pub mod units;

pub use event::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
