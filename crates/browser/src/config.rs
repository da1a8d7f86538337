//! Visit configuration.

use h3cdn_cdn::Vantage;
use h3cdn_netsim::{DynamicsProfile, FaultPlan, QueueDiscipline};
use h3cdn_sim_core::units::DataRate;
use h3cdn_sim_core::SimDuration;
use h3cdn_transport::CcAlgorithm;

/// Which protocols the browser is allowed to use for a visit — the
/// paper's two Chrome instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolMode {
    /// QUIC disabled: H2 everywhere (H1 for HTTP/1.x-only origins).
    H2Only,
    /// `enable-quic`: H3 wherever the resource supports it.
    H3Enabled,
}

impl ProtocolMode {
    /// The HAR `protocol_mode` label.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolMode::H2Only => "h2",
            ProtocolMode::H3Enabled => "h3",
        }
    }
}

impl std::fmt::Display for ProtocolMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything that parameterises one page visit.
///
/// The defaults model the paper's testbed: a CloudLab probe on a
/// gigabit campus link, warm edge caches (the measured second visit), no
/// injected loss, Cubic congestion control, and a small H3 server
/// compute surcharge (the cause of the paper's negative wait-reduction
/// median, §VI-B).
#[derive(Debug, Clone)]
pub struct VisitConfig {
    /// Protocol mode for this visit.
    pub mode: ProtocolMode,
    /// Vantage point the probe runs from.
    pub vantage: Vantage,
    /// Packet-loss percentage injected on the client's paths (Fig. 9's
    /// `tc` sweep; 0.0 / 0.5 / 1.0 in the paper). Added on top of
    /// `baseline_loss_percent`.
    pub loss_percent: f64,
    /// Natural path loss present even with nothing injected: the paper's
    /// "0 %" is `tc` adding nothing to real Internet paths, which still
    /// lose the occasional packet.
    pub baseline_loss_percent: f64,
    /// Model Chrome's Alt-Svc discovery with a cold cache: the first
    /// request to each H3-capable domain goes over H2 and only
    /// *subsequent* requests use H3 (learned from the response's
    /// `alt-svc` header). Off by default — the paper's measured visit
    /// follows a warm-up visit, so the Alt-Svc cache is warm and H3 is
    /// used from the first request.
    pub alt_svc_discovery: bool,
    /// Client downlink rate.
    pub downlink: DataRate,
    /// Client uplink rate.
    pub uplink: DataRate,
    /// Extra server processing for H3 requests.
    pub h3_extra_processing: SimDuration,
    /// When `true`, edge caches are cold and every CDN response pays an
    /// origin fetch (the paper's un-measured first visit).
    pub cold_cache: bool,
    /// Congestion-control algorithm for both stacks.
    pub cc: CcAlgorithm,
    /// Salt for path-jitter sampling. Equal salts give identical paths,
    /// which is what makes H2/H3 visits a paired comparison.
    pub jitter_salt: u64,
    /// Chrome-style graceful degradation: the QUIC-vs-TCP connection
    /// race, the broken-QUIC cache, re-dispatch of stranded requests and
    /// TCP re-dial backoff. Off by default so fault-free measurements
    /// stay bit-identical to the pre-fallback stack; the fault matrix
    /// turns it on for its "with fallback" arm.
    pub h3_fallback: bool,
    /// Scheduled path impairments; `None` leaves the fabric fault-free
    /// (and installs no fault state at all, preserving bit-identical
    /// loss draws).
    pub faults: Option<FaultSpec>,
    /// Queue discipline of the client's access-link serialisers (uplink
    /// and downlink). The default deep tail-drop FIFO reproduces the
    /// pre-discipline fabric bit-identically.
    pub queue: QueueDiscipline,
    /// Continuous path dynamics: a trace profile driven onto every
    /// client↔edge path (same trace phase on each — the client's access
    /// network is what degrades), with the dynamic bottleneck running
    /// [`VisitConfig::queue`]. `None` installs no dynamics state at all,
    /// preserving bit-identical loss draws.
    pub path_dynamics: Option<DynamicsProfile>,
    /// Deterministic watchdog: cap on simulator events for the visit.
    /// A visit that exhausts the budget aborts with the engine's
    /// [`StallReport`](h3cdn_netsim::StallReport) diagnosis instead of
    /// spinning — the crash-safe runner's per-job sim budget. `None`
    /// (default) leaves only the simulated wall-clock deadline.
    pub max_sim_events: Option<u64>,
}

/// Fault injection for a visit: a [`FaultPlan`] installed symmetrically
/// on the client↔server paths of a deterministic subset of the page's
/// domains.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The impairment schedule for each selected path.
    pub plan: FaultPlan,
    /// Fraction of the page's domains whose paths receive the plan
    /// (`1.0` = every path). Selection is a deterministic per-domain
    /// coin seeded off `jitter_salt`, so equal configs fault equal
    /// domains.
    pub domain_fraction: f64,
}

impl FaultSpec {
    /// Applies `plan` to every domain's path.
    pub fn everywhere(plan: FaultPlan) -> Self {
        FaultSpec {
            plan,
            domain_fraction: 1.0,
        }
    }

    /// Whether `domain` is selected for the plan under `salt`.
    pub fn selects(&self, domain: u64, salt: u64) -> bool {
        if self.domain_fraction >= 1.0 {
            return true;
        }
        if self.domain_fraction <= 0.0 {
            return false;
        }
        h3cdn_sim_core::SimRng::seed_from(salt ^ 0x05EC_7FA0)
            .fork(domain)
            .bernoulli(self.domain_fraction)
    }
}

impl Default for VisitConfig {
    fn default() -> Self {
        VisitConfig {
            mode: ProtocolMode::H3Enabled,
            vantage: Vantage::Utah,
            loss_percent: 0.0,
            baseline_loss_percent: 0.04,
            alt_svc_discovery: false,
            downlink: DataRate::from_mbps(1000),
            uplink: DataRate::from_mbps(1000),
            h3_extra_processing: SimDuration::from_micros(1500),
            cold_cache: false,
            cc: CcAlgorithm::Cubic,
            jitter_salt: 0x4A17_7E12,
            h3_fallback: false,
            faults: None,
            queue: QueueDiscipline::DropTailDeep,
            path_dynamics: None,
            max_sim_events: None,
        }
    }
}

impl VisitConfig {
    /// Returns a copy in the given protocol mode (the paired-visit
    /// pattern: same config, both modes).
    pub fn with_mode(mut self, mode: ProtocolMode) -> Self {
        self.mode = mode;
        self
    }

    /// Returns a copy probing from the given vantage.
    pub fn with_vantage(mut self, vantage: Vantage) -> Self {
        self.vantage = vantage;
        self
    }

    /// Returns a copy with the given injected loss percentage.
    ///
    /// # Panics
    ///
    /// Panics if `percent` is outside `[0, 100]`.
    pub fn with_loss_percent(mut self, percent: f64) -> Self {
        assert!((0.0..=100.0).contains(&percent), "loss percent {percent}");
        self.loss_percent = percent;
        self
    }

    /// Returns a copy with Chrome-style fallback machinery toggled.
    pub fn with_h3_fallback(mut self, enabled: bool) -> Self {
        self.h3_fallback = enabled;
        self
    }

    /// Returns a copy with the given fault schedule installed.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Returns a copy with the given access-link queue discipline.
    pub fn with_queue(mut self, queue: QueueDiscipline) -> Self {
        self.queue = queue;
        self
    }

    /// Returns a copy with the given continuous-dynamics profile driven
    /// onto every client↔edge path (`None` clears it).
    pub fn with_path_dynamics(mut self, profile: Option<DynamicsProfile>) -> Self {
        self.path_dynamics = profile;
        self
    }

    /// Returns a copy with the given sim-event watchdog budget
    /// (`None` disables it).
    pub fn with_max_sim_events(mut self, budget: Option<u64>) -> Self {
        self.max_sim_events = budget;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ProtocolMode::H2Only.to_string(), "h2");
        assert_eq!(ProtocolMode::H3Enabled.label(), "h3");
    }

    #[test]
    fn builders() {
        let cfg = VisitConfig::default()
            .with_mode(ProtocolMode::H2Only)
            .with_vantage(Vantage::Clemson)
            .with_loss_percent(0.5);
        assert_eq!(cfg.mode, ProtocolMode::H2Only);
        assert_eq!(cfg.vantage, Vantage::Clemson);
        assert!((cfg.loss_percent - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "loss percent")]
    fn loss_range_checked() {
        let _ = VisitConfig::default().with_loss_percent(101.0);
    }

    #[test]
    fn dynamics_builders() {
        let cfg = VisitConfig::default()
            .with_queue(QueueDiscipline::CoDel)
            .with_path_dynamics(Some(DynamicsProfile::OscillatingBottleneck));
        assert_eq!(cfg.queue, QueueDiscipline::CoDel);
        assert_eq!(
            cfg.path_dynamics,
            Some(DynamicsProfile::OscillatingBottleneck)
        );
        let cleared = cfg.with_path_dynamics(None);
        assert_eq!(cleared.path_dynamics, None);
        // The default must reproduce the pre-dynamics fabric.
        let d = VisitConfig::default();
        assert_eq!(d.queue, QueueDiscipline::DropTailDeep);
        assert_eq!(d.path_dynamics, None);
    }
}
