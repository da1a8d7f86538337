//! The simulated browser: page loading over the full protocol stack.
//!
//! This crate plays the role Chrome 108 + chrome-har-capturer play in the
//! paper's measurement pipeline. A [`client::ClientHost`] drives one page
//! visit: it discovers resources in waves, schedules them onto pooled
//! H1/H2/H3 connections (per-domain pools, six-connection H1 limit,
//! single multiplexed H2/H3 connection per domain and version), performs
//! TLS/QUIC session resumption from a cross-visit [`TicketStore`], and
//! emits a HAR page with Chrome-compatible per-entry phases.
//!
//! Protocol selection reproduces the study's measurement setup:
//!
//! * **H2 mode** (`--disable-quic`): everything over H2, except
//!   HTTP/1.x-only origins.
//! * **H3 mode** (`enable-quic`): resources whose hosting reports H3
//!   support go over H3; the rest fall back to H2/H1. Because provider
//!   H3 deployment is partial *within* a domain's resources, a domain can
//!   need both an H2 and an H3 connection in H3 mode — the
//!   connection-splitting effect behind the paper's Fig. 7 reuse gap.
//!
//! [`try_visit_page`] runs one visit as the one-client case of the
//! [`swarm`] fabric, which assembles the network (per-domain edge paths
//! from the vantage profile, client access-link rates, optional `tc`-
//! style loss), runs the event loop to quiescence, and returns the HAR
//! or an [`AbortedVisit`].
//!
//! [`TicketStore`]: h3cdn_transport::tls::TicketStore

pub mod client;
pub mod config;
pub mod host;
pub mod resilience;
pub mod server;
pub mod swarm;
pub mod visit;

pub use config::{FaultSpec, ProtocolMode, VisitConfig};
pub use resilience::{BrokenQuicCache, ResilienceStats};
pub use swarm::{run_swarm, ClientOutcome, SwarmConfig, SwarmOutcome};
pub use visit::{try_visit_consecutively, try_visit_page, AbortedVisit, VisitOutcome, VisitStats};

// The deterministic parallel runner in `h3cdn` moves visit inputs and
// outcomes across worker threads; keep them `Send + Sync` so campaign
// closures borrowing them stay thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ProtocolMode>();
    assert_send_sync::<VisitConfig>();
    assert_send_sync::<VisitOutcome>();
    assert_send_sync::<VisitStats>();
    assert_send_sync::<FaultSpec>();
    assert_send_sync::<BrokenQuicCache>();
    assert_send_sync::<ResilienceStats>();
    assert_send_sync::<AbortedVisit>();
    assert_send_sync::<SwarmConfig>();
    assert_send_sync::<SwarmOutcome>();
    assert_send_sync::<ClientOutcome>();
};
