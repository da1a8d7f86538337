//! The edge-overload sweep: finite-edge capacity × arrival pattern ×
//! protocol/fallback arms × optional path faults.
//!
//! The paper's client-side experiments implicitly assume infinitely
//! provisioned edges — every handshake is admitted, PLT differences
//! come only from the path and the protocol. This sweep drops that
//! assumption: each page is loaded by a *swarm* of concurrent browsers
//! sharing one stateful [`EdgeState`](h3cdn_cdn::EdgeState) per
//! domain, whose admission controller sheds load by protocol-aware
//! policy (QUIC — the expensive handshake — first) when the
//! handshake-CPU, memory, or connection budget runs out.
//!
//! Every scenario loads each page three ways over identical budgets:
//!
//! * **h2** — QUIC disabled; refusals are TCP RSTs.
//! * **h3** — `enable-quic` without fallback machinery: a refused QUIC
//!   handshake strands its requests.
//! * **h3+fallback** — Chrome-style graceful degradation: a refusal
//!   marks the domain QUIC-broken and stampedes the client onto TCP —
//!   the fallback storm the edge must then absorb.
//!
//! Each cell reports stranded clients, median/worst PLT of completed
//! loads (measured from each client's arrival), per-edge
//! admission/refusal/shed/ticket counters, fallback storms, and
//! re-dial retries. The control row — one client, no admission
//! control — is bit-identical to the plain campaign visit paths for
//! every worker count.

use h3cdn_analysis::{finite_mean, finite_median, finite_quantile};
use h3cdn_browser::{run_swarm, FaultSpec, SwarmConfig};
use h3cdn_cdn::{EdgeConfig, EdgeStats, Vantage};
use h3cdn_netsim::FaultPlan;
use h3cdn_sim_core::SimDuration;
use h3cdn_web::{DomainTable, Webpage};
use serde::{Deserialize, Serialize};

use h3cdn::{MeasurementCampaign, VisitConfig};

use crate::sweep::{self, fmt_ms, Arm, Column, Grid, Row, Sweep, Table};

/// How many browsers a swarm scenario throws at the shared edges.
const SWARM_CLIENTS: usize = 6;

/// Arrival gap of the paced scenarios.
const PACED_SPACING: SimDuration = SimDuration::from_millis(50);

/// How the edge is provisioned relative to the swarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeCapacity {
    /// The default budgets: a swarm never trips them.
    Ample,
    /// A handshake-CPU bucket sized so a thundering herd overruns it:
    /// QUIC costs the whole refill of a second, TCP a fortieth.
    Starved,
}

impl EdgeCapacity {
    fn label(self) -> &'static str {
        match self {
            EdgeCapacity::Ample => "ample",
            EdgeCapacity::Starved => "starved",
        }
    }

    fn config(self) -> EdgeConfig {
        match self {
            EdgeCapacity::Ample => EdgeConfig::default(),
            EdgeCapacity::Starved => EdgeConfig {
                cpu_tokens_per_sec: 40,
                cpu_token_burst: 80,
                tcp_handshake_tokens: 1,
                quic_handshake_tokens: 40,
                ..EdgeConfig::default()
            },
        }
    }
}

/// How the swarm's clients arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalRate {
    /// Everyone at t = 0 — the thundering herd.
    Herd,
    /// One client every `PACED_SPACING` — the edge's refill keeps up
    /// better.
    Paced,
}

impl ArrivalRate {
    fn label(self) -> &'static str {
        match self {
            ArrivalRate::Herd => "herd",
            ArrivalRate::Paced => "paced",
        }
    }

    fn spacing(self) -> SimDuration {
        match self {
            ArrivalRate::Herd => SimDuration::ZERO,
            ArrivalRate::Paced => PACED_SPACING,
        }
    }
}

/// One point of the sweep: a swarm shape plus optional path faults.
#[derive(Debug, Clone)]
pub struct OverloadScenario {
    /// Scenario label used in reports: `capacity/arrival[/blackhole]`,
    /// or `control/solo`.
    pub name: String,
    /// Browsers per page.
    pub clients: usize,
    /// Gap between consecutive arrivals.
    pub arrival_spacing: SimDuration,
    /// Edge budgets; `None` models the infinitely provisioned edges of
    /// the solo visit path.
    pub edge: Option<EdgeConfig>,
    /// Whether every path additionally drops all UDP (the PR 3 fault
    /// plan): QUIC dies twice over, once on the path and once at
    /// admission.
    pub udp_blackhole: bool,
}

impl OverloadScenario {
    /// The control: one client, no admission control — the exact solo
    /// visit path. Its numbers must match the plain campaign visit
    /// paths bit for bit.
    pub fn control() -> Self {
        OverloadScenario {
            name: "control/solo".to_owned(),
            clients: 1,
            arrival_spacing: SimDuration::ZERO,
            edge: None,
            udp_blackhole: false,
        }
    }

    /// A swarm scenario named `capacity/arrival[/blackhole]`.
    pub fn swarm(capacity: EdgeCapacity, arrival: ArrivalRate, udp_blackhole: bool) -> Self {
        let mut name = format!("{}/{}", capacity.label(), arrival.label());
        if udp_blackhole {
            name.push_str("/blackhole");
        }
        OverloadScenario {
            name,
            clients: SWARM_CLIENTS,
            arrival_spacing: arrival.spacing(),
            edge: Some(capacity.config()),
            udp_blackhole,
        }
    }

    fn shape(&self) -> SwarmConfig {
        SwarmConfig {
            clients: self.clients,
            arrival_spacing: self.arrival_spacing,
            edge: self.edge.clone(),
        }
    }
}

/// The full sweep: the control plus {ample, starved} × {herd, paced}
/// plus the starved herd under a UDP blackhole (6 scenarios).
pub fn default_scenarios() -> Vec<OverloadScenario> {
    vec![
        OverloadScenario::control(),
        OverloadScenario::swarm(EdgeCapacity::Ample, ArrivalRate::Herd, false),
        OverloadScenario::swarm(EdgeCapacity::Ample, ArrivalRate::Paced, false),
        OverloadScenario::swarm(EdgeCapacity::Starved, ArrivalRate::Herd, false),
        OverloadScenario::swarm(EdgeCapacity::Starved, ArrivalRate::Paced, false),
        OverloadScenario::swarm(EdgeCapacity::Starved, ArrivalRate::Herd, true),
    ]
}

/// One `(scenario, arm)` cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadCell {
    /// Scenario label (`capacity/arrival[/blackhole]` or `control/solo`).
    pub scenario: String,
    /// Arm label (`h2` / `h3` / `h3+fallback`).
    pub arm: String,
    /// Pages measured.
    pub pages: usize,
    /// Browsers per page.
    pub clients_per_page: usize,
    /// Clients that never finished their page, across all pages — the
    /// cost of refusals without fallback.
    pub stranded_clients: usize,
    /// Mean PLT over completed clients (`NaN` when none completed).
    pub mean_plt_ms: f64,
    /// Median PLT over completed clients, measured from each client's
    /// arrival (`NaN` when none completed).
    pub median_plt_ms: f64,
    /// Worst completed-client PLT (`NaN` when none completed) — the
    /// tail the backoff schedule and fallback races produce.
    pub worst_plt_ms: f64,
    /// Edge admission/refusal/shed/ticket counters summed over the
    /// cell's pages (all zeroes for the control).
    pub edge: EdgeStats,
    /// Total H3→H2 fallbacks across all clients and pages.
    pub h3_fallbacks: u64,
    /// Total connection re-dial retries (the backoff walker).
    pub conn_retries: u64,
    /// Per-client PLTs, site-major then arrival order; `NaN` marks a
    /// stranded client.
    pub plts_ms: Vec<f64>,
}

/// The full sweep result, rows scenario-major in input order, arms
/// `h2`, `h3`, `h3+fallback` within each scenario.
pub type OverloadSweep = Table<OverloadCell>;

impl Row for OverloadCell {
    const TITLE: &'static str =
        "Edge overload: capacity x arrival x {h2, h3, h3+fallback} (per-cell aggregates)";
    const SCENARIO_WIDTH: usize = 24;
    const COLUMNS: &'static [Column<Self>] = &[
        ("pages", 5, |r| r.pages.to_string()),
        ("cli", 4, |r| r.clients_per_page.to_string()),
        ("stranded", 8, |r| r.stranded_clients.to_string()),
        ("mean PLT ms", 12, |r| fmt_ms(r.mean_plt_ms)),
        ("med PLT ms", 12, |r| fmt_ms(r.median_plt_ms)),
        ("worst PLT", 12, |r| fmt_ms(r.worst_plt_ms)),
        ("admit", 8, |r| r.edge.admitted().to_string()),
        ("refused", 8, |r| r.edge.refused().to_string()),
        ("shed-cpu", 8, |r| r.edge.shed_cpu.to_string()),
        ("tkt-hit", 8, |r| r.edge.ticket_hits.to_string()),
        ("tkt-miss", 8, |r| r.edge.ticket_misses.to_string()),
        ("fallbacks", 9, |r| r.h3_fallbacks.to_string()),
        ("retries", 7, |r| r.conn_retries.to_string()),
    ];

    fn scenario(&self) -> &str {
        &self.scenario
    }

    fn arm(&self) -> &str {
        &self.arm
    }

    fn plts_ms(&self) -> &[f64] {
        &self.plts_ms
    }
}

/// One page's swarm, reduced for the checkpoint journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Sample {
    /// Per-client PLTs from arrival, in arrival order; `NaN` = stranded.
    plts_ms: Vec<f64>,
    h3_fallbacks: u64,
    conn_retries: u64,
    edge: EdgeStats,
}

/// Runs the sweep, `scenarios × {h2, h3, h3+fallback} × sites`, on the
/// [`sweep`] engine: bit-identical for every worker count, with
/// quarantined swarms dropped from their cell (shrinking its `pages`
/// count) and reported through the campaign's quarantine sink.
///
/// # Panics
///
/// Panics if a scenario carries an invalid edge budget — the presets
/// in this module always validate.
pub fn run(
    campaign: &MeasurementCampaign,
    vantage: Vantage,
    scenarios: &[OverloadScenario],
) -> OverloadSweep {
    for sc in scenarios {
        if let Some(edge) = &sc.edge {
            edge.validate()
                .unwrap_or_else(|e| panic!("scenario '{}': {e}", sc.name));
        }
    }
    sweep::run(campaign, vantage, scenarios)
}

impl Sweep for OverloadScenario {
    type Sample = Sample;
    type Cell = OverloadCell;

    const BIN: &'static str = "edge_overload";
    const JOB: &'static str = "overload";
    const SMOKE_PAGES: usize = 4;

    fn name(&self) -> &str {
        &self.name
    }

    fn control() -> Self {
        OverloadScenario::control()
    }

    fn default_scenarios() -> Vec<Self> {
        default_scenarios()
    }

    /// The control (bit-identity gate), the ample herd (no spurious
    /// refusals), the starved herd (the fallback-storm invariants), and
    /// the starved herd under a blackhole (refusals compose with path
    /// faults).
    fn smoke_scenarios() -> Vec<Self> {
        vec![
            OverloadScenario::control(),
            OverloadScenario::swarm(EdgeCapacity::Ample, ArrivalRate::Herd, false),
            OverloadScenario::swarm(EdgeCapacity::Starved, ArrivalRate::Herd, false),
            OverloadScenario::swarm(EdgeCapacity::Starved, ArrivalRate::Herd, true),
        ]
    }

    fn configure(&self, cfg: VisitConfig) -> VisitConfig {
        if self.udp_blackhole {
            cfg.with_faults(FaultSpec::everywhere(FaultPlan::udp_blackhole_always()))
        } else {
            cfg
        }
    }

    fn sample(&self, page: &Webpage, domains: &DomainTable, cfg: &VisitConfig) -> Sample {
        let out = run_swarm(page, domains, cfg, &self.shape()).expect("scenario budgets validate");
        Sample {
            plts_ms: out
                .clients
                .iter()
                .map(|c| c.plt_ms.unwrap_or(f64::NAN))
                .collect(),
            h3_fallbacks: out.clients.iter().map(|c| c.resilience.h3_fallbacks).sum(),
            conn_retries: out.clients.iter().map(|c| c.resilience.conn_retries).sum(),
            edge: out.edge_totals(),
        }
    }

    fn reduce(grid: &Grid<'_, Self>, si: usize, arm: Arm, samples: &[Sample]) -> OverloadCell {
        let sc = &grid.scenarios[si];
        let plts: Vec<f64> = samples.iter().flat_map(|s| s.plts_ms.clone()).collect();
        let mut edge = EdgeStats::default();
        for s in samples {
            edge.absorb(&s.edge);
        }
        let (median_plt_ms, stranded_clients) = finite_median(&plts);
        OverloadCell {
            scenario: sc.name.clone(),
            arm: arm.label().to_owned(),
            pages: samples.len(),
            clients_per_page: sc.clients,
            stranded_clients,
            mean_plt_ms: finite_mean(&plts).0,
            median_plt_ms,
            worst_plt_ms: finite_quantile(&plts, 1.0).0,
            edge,
            h3_fallbacks: samples.iter().map(|s| s.h3_fallbacks).sum(),
            conn_retries: samples.iter().map(|s| s.conn_retries).sum(),
            plts_ms: plts,
        }
    }

    /// The starved herd sheds QUIC and strands the fallback-less h3
    /// arm; the fallback arm completes every client over TCP with a
    /// visible fallback storm, also under a UDP blackhole; the ample
    /// edge refuses nobody.
    fn check_smoke(sweep: &OverloadSweep) {
        // Overload: the starved herd must shed QUIC handshakes, and
        // without fallback machinery those refusals strand clients.
        let rigid = sweep.cell("starved/herd", "h3");
        assert!(
            rigid.edge.refused_quic > 0,
            "the starved edge must refuse QUIC handshakes"
        );
        assert!(
            rigid.stranded_clients > 0,
            "refusals without fallback must strand clients"
        );
        // Graceful degradation: the fallback arm turns the same refusals
        // into an H3→H2 storm and completes every client.
        let graceful = sweep.cell("starved/herd", "h3+fallback");
        assert_eq!(
            graceful.stranded_clients, 0,
            "fallback must complete every client under overload"
        );
        assert!(
            graceful.edge.refused_quic > 0,
            "the graceful arm must still see refusals"
        );
        assert!(
            graceful.h3_fallbacks > 0,
            "refusals must drive a visible fallback storm"
        );
        // Composition: a UDP blackhole on top of the starved edge must not
        // strand the fallback arm either.
        let faulted = sweep.cell("starved/herd/blackhole", "h3+fallback");
        assert_eq!(
            faulted.stranded_clients, 0,
            "fallback must survive refusals composed with path faults"
        );
        // No spurious refusals: the amply provisioned edge admits the same
        // herd without shedding anything.
        let ample = sweep.cell("ample/herd", "h3");
        assert_eq!(ample.stranded_clients, 0, "the ample herd must complete");
        assert_eq!(ample.edge.refused(), 0, "the ample edge must refuse nobody");
        assert!(ample.edge.admitted() > 0);
    }
}

/// The `edge_overload` binary.
pub fn main() {
    sweep::main::<OverloadScenario>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn::CampaignConfig;

    #[test]
    fn starved_herd_strands_h3_and_fallback_rescues() {
        let campaign = MeasurementCampaign::new(CampaignConfig::small(4, 42));
        let scenarios = vec![OverloadScenario::swarm(
            EdgeCapacity::Starved,
            ArrivalRate::Herd,
            false,
        )];
        let sweep = run(&campaign, Vantage::Utah, &scenarios);
        assert_eq!(sweep.rows.len(), 3);
        let rigid = sweep.cell("starved/herd", "h3");
        assert!(
            rigid.edge.refused_quic > 0,
            "the starved edge must shed QUIC handshakes"
        );
        assert!(
            rigid.stranded_clients > 0,
            "refusals without fallback must strand clients"
        );
        let graceful = sweep.cell("starved/herd", "h3+fallback");
        assert_eq!(
            graceful.stranded_clients, 0,
            "fallback must rescue every client"
        );
        assert!(graceful.edge.refused_quic > 0);
        assert!(
            graceful.h3_fallbacks > 0,
            "refusals must drive a visible fallback storm"
        );
    }

    #[test]
    fn display_and_json_render() {
        let campaign = MeasurementCampaign::new(CampaignConfig::small(2, 5));
        let scenarios = vec![
            OverloadScenario::control(),
            OverloadScenario::swarm(EdgeCapacity::Ample, ArrivalRate::Paced, false),
        ];
        let sweep = run(&campaign, Vantage::Utah, &scenarios);
        let text = sweep.to_string();
        assert!(text.contains("ample/paced"));
        assert!(text.contains("h3+fallback"));
        let json = serde_json::to_string(&sweep).expect("serialises");
        assert!(json.contains("stranded_clients"));
        assert!(json.contains("refused_quic"));
        // One client and no admission control: the control's edge is
        // never consulted.
        for arm in Arm::ALL.map(Arm::label) {
            assert_eq!(sweep.cell("control/solo", arm).edge, EdgeStats::default());
        }
    }

    #[test]
    fn scenario_sets_are_well_formed() {
        let all = default_scenarios();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].name, "control/solo");
        for sc in &all {
            if let Some(edge) = &sc.edge {
                edge.validate().expect("preset budgets validate");
            }
        }
        let smoke = OverloadScenario::smoke_scenarios();
        assert!(smoke.iter().any(|s| s.edge.is_none()));
        assert!(smoke.iter().any(|s| s.name == "starved/herd/blackhole"));
    }
}
