//! HTTP/1.1, HTTP/2, and HTTP/3 clients and servers over the simulated
//! transports.
//!
//! The three protocol stacks the paper measures map onto the two
//! transports of `h3cdn-transport`:
//!
//! * [`h1::H1Client`] — one request at a time per TLS-over-TCP connection
//!   (browsers open up to six per host; the pool layer enforces that).
//! * [`h2::H2Client`] — all requests multiplexed onto one TLS-over-TCP
//!   connection. The server interleaves response DATA across streams
//!   (round-robin chunks), but everything rides one in-order byte stream,
//!   so a single lost segment stalls every response — H2's head-of-line
//!   blocking.
//! * [`h3::H3Client`] — one QUIC stream per request; streams deliver
//!   independently.
//!
//! Every client and server, and the protocol-erased [`ClientConn`] and
//! [`ServerConn`] the browser pools hold, is driven through
//! `h3cdn_transport`'s one endpoint interface,
//! [`Driveable`](h3cdn_transport::duplex::Driveable): packets and timer
//! expiries in, packets out, exactly as the transports beneath them.
//!
//! Servers are protocol-thin: a [`h2::TcpServer`] answers both H1 and H2
//! clients (the difference is purely client-side scheduling), and a
//! [`h3::QuicServer`] answers H3. Both look responses up in a shared
//! [`Catalog`] and simulate per-request processing time — with a
//! configurable H3 compute surcharge, reproducing the paper's finding
//! that H3's *wait* median is slightly negative (§VI-B, citing the
//! paper's refs 37 and 38).

pub mod client;
pub mod h1;
pub mod h2;
pub mod h3;
pub mod server;
pub mod types;

pub use client::ClientConn;
pub use server::ServerConn;
pub use types::{Catalog, HttpEvent, HttpVersion, RequestMeta, ResponseSpec};
