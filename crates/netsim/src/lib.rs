//! Packet-level network simulator for the `h3cdn` reproduction.
//!
//! The public Internet paths the ICDCS 2024 measurement study ran over are
//! modelled here as a mesh of *directed paths* between [`NodeId`]s. Each
//! path has propagation delay, a random-loss process, and optional rate
//! limits; each node additionally owns ingress/egress serialisers so that a
//! client's access link is the shared bottleneck when a page pulls
//! resources from many CDN edges in parallel — exactly the congestion
//! scenario the paper's Fig. 9 provokes with `tc`.
//!
//! The [`Engine`] drives user-defined [`Node`]s (protocol endpoints built
//! in `h3cdn-transport` / `h3cdn-http`) through a deterministic event loop:
//! packets are handed to [`Node::handle_packet`], timers fire through
//! [`Node::handle_wakeup`], and every run with equal seeds replays
//! identically.
//!
//! # Example
//!
//! ```
//! use h3cdn_netsim::{Engine, Network, Node, NodeCtx, PathSpec};
//! use h3cdn_sim_core::units::ByteCount;
//! use h3cdn_sim_core::{SimDuration, SimTime};
//!
//! struct Echo;
//! impl Node for Echo {
//!     type Packet = u32;
//!     fn handle_packet(&mut self, pkt: u32, ctx: &mut NodeCtx<'_, u32>) {
//!         if pkt < 3 {
//!             let from = ctx.sender().unwrap();
//!             ctx.send(from, pkt + 1, ByteCount::new(100));
//!         }
//!     }
//!     fn handle_wakeup(&mut self, _ctx: &mut NodeCtx<'_, u32>) {}
//!     fn next_wakeup(&self) -> Option<SimTime> { None }
//! }
//!
//! let mut net = Network::new(7);
//! let a = net.add_node();
//! let b = net.add_node();
//! net.set_path(a, b, PathSpec::with_delay(SimDuration::from_millis(10)));
//! net.set_path(b, a, PathSpec::with_delay(SimDuration::from_millis(10)));
//! let mut engine = Engine::new(net, vec![Echo, Echo]);
//! engine.inject_packet(a, b, 0, ByteCount::new(100));
//! let end = engine.run_until_checked(SimTime::MAX).expect("the echo finishes");
//! // 0→b, 1→a, 2→b, 3→a stops: four 10 ms hops.
//! assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(40));
//! ```

pub mod dynamics;
pub mod engine;
pub mod fault;
pub mod link;
pub mod loss;
pub mod network;
pub mod node;
pub mod topology;

pub use dynamics::{DynamicsProfile, PathTrace, TraceKey};
pub use engine::{Engine, StallReport};
pub use fault::{FaultPlan, FaultPlanError, TransportClass};
pub use link::{PathSpec, QueueDiscipline, QueueStats};
pub use loss::LossModel;
pub use network::Network;
pub use node::{Node, NodeCtx, NodeId};
