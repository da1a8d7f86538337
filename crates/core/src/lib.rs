//! # h3cdn — reproducing *Dissecting the Applicability of HTTP/3 in CDNs*
//!
//! This crate is the public face of a full reproduction of the ICDCS 2024
//! measurement study. It exposes the study's methodology as an API: build
//! a calibrated page corpus, visit every page over H2 and H3 from three
//! vantage points through packet-level protocol simulations, and run the
//! paper's analyses — adoption tables, CCDFs, quartile-grouped PLT
//! reductions, consecutive-visit resumption, k-means sharing groups, and
//! loss sweeps.
//!
//! ## Quickstart
//!
//! ```
//! use h3cdn::{CampaignConfig, MeasurementCampaign};
//!
//! // A small campaign (10 pages) for illustration; the paper-scale
//! // default is 325 pages.
//! let campaign = MeasurementCampaign::new(CampaignConfig::small(10, 7));
//! let cmp = campaign.compare_page(0, h3cdn::Vantage::Utah);
//! assert!(cmp.plt_reduction_ms.is_finite());
//! ```
//!
//! ## Layer map
//!
//! | crate | role |
//! |---|---|
//! | `h3cdn-sim-core` | deterministic time, events, RNG |
//! | `h3cdn-netsim` | packet-level links, loss, engine |
//! | `h3cdn-transport` | TCP, TLS, QUIC state machines |
//! | `h3cdn-http` | H1/H2/H3 clients and servers |
//! | `h3cdn-cdn` | providers, vantages, LocEdge |
//! | `h3cdn-web` | calibrated page corpus |
//! | `h3cdn-browser` | page loads, HAR emission |
//! | `h3cdn-har` | HAR records, reduction metrics |
//! | `h3cdn-analysis` | CDF/CCDF, k-means, OLS |
//!
//! Every experiment of the paper has a regenerator in the
//! `h3cdn-experiments` crate (one module per table/figure, sitting
//! above this crate and `h3cdn-analysis` in the layer map); its
//! binaries print the same rows/series the paper's tables and figures
//! report.

pub mod campaign;
pub mod persist;
pub mod runner;
pub mod selector;

pub use campaign::{CampaignConfig, MeasurementCampaign};
pub use persist::shard::ShardedJournal;
pub use persist::{atomic_write, Fingerprint, Manifest, RunDir};
pub use runner::durable::{DurableContext, JobFailure, JobMeta};
pub use runner::streaming::{run_keyed_streaming, StreamStats};
pub use runner::{run_keyed, RunnerConfig};

pub use h3cdn_browser as browser;
pub use h3cdn_cdn as cdn;
pub use h3cdn_har as har;
pub use h3cdn_http as http;
pub use h3cdn_netsim as netsim;
pub use h3cdn_sim_core as sim_core;
pub use h3cdn_transport as transport;
pub use h3cdn_web as web;

pub use h3cdn_browser::{ProtocolMode, VisitConfig};
pub use h3cdn_cdn::{Provider, Vantage};
pub use h3cdn_har::PageComparison;
pub use h3cdn_web::WorkloadSpec;

// The parallel runner borrows the campaign from every worker thread;
// these compile-time assertions keep that contract explicit.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CampaignConfig>();
    assert_send_sync::<MeasurementCampaign>();
    assert_send_sync::<RunnerConfig>();
};
