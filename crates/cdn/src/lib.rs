//! CDN provider model for the `h3cdn` reproduction.
//!
//! Provides the study's seven-provider universe with market shares and
//! per-provider H3 adoption rates calibrated so the corpus reproduces the
//! paper's Table II and Fig. 2 marginals; per-vantage edge RTT profiles
//! (the three CloudLab sites); the edge cache-miss penalty; finite edge
//! admission; and a re-implementation of the LocEdge classifier that
//! identifies the hosting provider from response-header fingerprints.

pub mod edge;
pub mod locedge;
pub mod overload;
pub mod provider;
pub mod topology;

pub use locedge::{classify, fingerprint_headers};
pub use overload::{
    Admission, EdgeConfig, EdgeConfigError, EdgeState, EdgeStats, HandshakeKind, RefusalCause,
};
pub use provider::{Provider, ProviderProfile, ProviderRegistry};
pub use topology::Vantage;

// The deterministic parallel runner in `h3cdn` shares provider and
// topology data across worker threads; keep these types `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EdgeState>();
    assert_send_sync::<EdgeStats>();
    assert_send_sync::<Provider>();
    assert_send_sync::<ProviderProfile>();
    assert_send_sync::<ProviderRegistry>();
    assert_send_sync::<Vantage>();
};
