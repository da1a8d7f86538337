//! The fault matrix: scheduled path impairments × protocol/fallback
//! arms, quantifying Chrome-style graceful degradation.
//!
//! The paper measures H3 on *healthy* CloudLab paths; this experiment
//! asks what its two Chrome instances would have seen on broken ones.
//! For every impairment scenario the matrix loads each page three ways
//! over identical paths:
//!
//! * **h2** — QUIC disabled; a UDP-only fault never touches it.
//! * **h3** — `enable-quic` *without* fallback machinery: requests
//!   stranded on a dead QUIC connection stay stranded and the visit
//!   aborts (the baseline the matrix quantifies).
//! * **h3+fallback** — Chrome-style graceful degradation: the
//!   QUIC-vs-TCP race, the broken-QUIC memory, re-dispatch of stranded
//!   requests and TCP re-dial backoff.
//!
//! Each cell reports abort counts, the median PLT of completed loads,
//! the PLT delta against the same scenario's H2 arm (the price of
//! falling back), fallback counts and the mean time-to-fallback
//! penalty. The fault-free control row is bit-identical to the plain
//! campaign visit paths for every worker count.

use h3cdn_analysis::finite_median;
use h3cdn_browser::{try_visit_page, BrokenQuicCache, FaultSpec};
use h3cdn_netsim::FaultPlan;
use h3cdn_sim_core::{SimDuration, SimTime};
use h3cdn_transport::tls::TicketStore;
use h3cdn_web::{DomainTable, Webpage};
use serde::{Deserialize, Serialize};

use h3cdn::VisitConfig;

use crate::sweep::{self, fmt_ms, Arm, Column, Grid, Row, Sweep, Table};

/// One impairment scenario: a fault plan installed symmetrically on a
/// deterministic fraction of each page's client↔server paths.
#[derive(Debug, Clone)]
pub(crate) struct FaultScenario {
    /// Scenario label used in reports.
    pub name: String,
    /// The impairment; `None` leaves every path fault-free.
    pub faults: Option<FaultSpec>,
}

impl FaultScenario {
    /// A permanent UDP blackhole on `fraction` of each page's domains:
    /// QUIC packets vanish silently while TCP flows untouched — the
    /// middlebox failure mode that motivated Chrome's fallback.
    pub fn udp_blackhole(fraction: f64) -> Self {
        FaultScenario {
            name: format!("udp-blackhole {:.0}%", fraction * 100.0),
            faults: Some(FaultSpec {
                plan: FaultPlan::udp_blackhole_always(),
                domain_fraction: fraction,
            }),
        }
    }

    /// A full bidirectional blackout over `[from_ms, until_ms)` on
    /// every path — both stacks lose packets and must recover.
    pub fn blackout_ms(from_ms: u64, until_ms: u64) -> Self {
        let plan = FaultPlan::new()
            .blackout(
                SimTime::ZERO + SimDuration::from_millis(from_ms),
                SimTime::ZERO + SimDuration::from_millis(until_ms),
            )
            .expect("blackout window is well-formed");
        FaultScenario {
            name: format!("blackout {from_ms}-{until_ms}ms"),
            faults: Some(FaultSpec::everywhere(plan)),
        }
    }
}

/// One `(scenario, arm)` cell of the matrix.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct FaultCell {
    /// Scenario label.
    pub scenario: String,
    /// Arm label (`h2` / `h3` / `h3+fallback`).
    pub arm: String,
    /// Pages measured.
    pub pages: usize,
    /// Pages that could not finish (stranded requests).
    pub aborted: usize,
    /// Median PLT over completed loads (`NaN` when none completed).
    pub median_plt_ms: f64,
    /// `median_plt_ms` minus the same scenario's H2-arm median — what
    /// the impairment (and surviving it) costs against plain TCP.
    pub plt_delta_vs_h2_ms: f64,
    /// Pages that performed at least one H3→H2 fallback.
    pub fallback_pages: usize,
    /// Total H3→H2 fallbacks across all pages.
    pub h3_fallbacks: u64,
    /// Mean time spent waiting on QUIC before a fallback fired — the
    /// per-fallback time-to-fallback penalty.
    pub mean_fallback_wait_ms: f64,
    /// TCP re-dial attempts after connection failures.
    pub conn_retries: u64,
    /// Packets consumed by the injected faults.
    pub fault_dropped_packets: u64,
    /// Per-site PLTs in site order; `NaN` marks an aborted load. Kept
    /// so downstream tooling (and the bit-identity tests) can compare
    /// individual loads.
    pub plts_ms: Vec<f64>,
}

impl Row for FaultCell {
    const TITLE: &'static str =
        "Fault matrix: impairments x {h2, h3, h3+fallback} (per-cell aggregates)";
    const SCENARIO_WIDTH: usize = 22;
    const COLUMNS: &'static [Column<Self>] = &[
        ("pages", 6, |r| r.pages.to_string()),
        ("aborted", 8, |r| r.aborted.to_string()),
        ("med PLT ms", 12, |r| fmt_ms(r.median_plt_ms)),
        ("d-h2 ms", 10, |r| fmt_ms(r.plt_delta_vs_h2_ms)),
        ("fb pages", 9, |r| r.fallback_pages.to_string()),
        ("fallbacks", 10, |r| r.h3_fallbacks.to_string()),
        ("fb wait ms", 11, |r| {
            format!("{:.1}", r.mean_fallback_wait_ms)
        }),
        ("retries", 8, |r| r.conn_retries.to_string()),
        ("dropped", 9, |r| r.fault_dropped_packets.to_string()),
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

/// One page load's contribution to a cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Sample {
    /// `NaN` when the visit aborted.
    plt_ms: f64,
    h3_fallbacks: u64,
    fallback_wait_ms: f64,
    conn_retries: u64,
    fault_dropped: u64,
}

impl Sweep for FaultScenario {
    type Sample = Sample;
    type Cell = FaultCell;

    const BIN: &'static str = "fault_matrix";
    const JOB: &'static str = "fault";
    const SMOKE_PAGES: usize = 6;

    fn name(&self) -> &str {
        &self.name
    }

    /// No impairment.
    fn control() -> Self {
        FaultScenario {
            name: "none".to_owned(),
            faults: None,
        }
    }

    /// Control, partial and total UDP blackholes, and a mid-visit
    /// blackout.
    fn default_scenarios() -> Vec<Self> {
        vec![
            FaultScenario::control(),
            FaultScenario::udp_blackhole(0.5),
            FaultScenario::udp_blackhole(1.0),
            FaultScenario::blackout_ms(50, 1500),
        ]
    }

    fn configure(&self, cfg: VisitConfig) -> VisitConfig {
        match &self.faults {
            Some(f) => cfg.with_faults(f.clone()),
            None => cfg,
        }
    }

    fn sample(&self, page: &Webpage, domains: &DomainTable, cfg: &VisitConfig) -> Sample {
        let (plt_ms, resilience, stats) = match try_visit_page(
            page,
            domains,
            cfg,
            TicketStore::new(),
            BrokenQuicCache::new(),
        ) {
            Ok(o) => (o.har.plt_ms, o.resilience, o.stats),
            Err(a) => (f64::NAN, a.resilience, a.stats),
        };
        Sample {
            plt_ms,
            h3_fallbacks: resilience.h3_fallbacks,
            fallback_wait_ms: resilience.fallback_wait.as_millis_f64(),
            conn_retries: resilience.conn_retries,
            fault_dropped: stats.packets_fault_dropped,
        }
    }

    fn reduce(grid: &Grid<'_, Self>, si: usize, arm: Arm, samples: &[Sample]) -> FaultCell {
        let plts = |samples: &[Sample]| samples.iter().map(|s| s.plt_ms).collect::<Vec<_>>();
        let plts_ms = plts(samples);
        let (med, aborted) = finite_median(&plts_ms);
        let h2 = grid
            .samples(si, Arm::H2)
            .map_or(f64::NAN, |h2| finite_median(&plts(h2)).0);
        let fallbacks: u64 = samples.iter().map(|s| s.h3_fallbacks).sum();
        let wait_ms: f64 = samples.iter().map(|s| s.fallback_wait_ms).sum();
        FaultCell {
            scenario: grid.scenarios[si].name.clone(),
            arm: arm.label().to_owned(),
            pages: samples.len(),
            aborted,
            median_plt_ms: med,
            plt_delta_vs_h2_ms: med - h2,
            fallback_pages: samples.iter().filter(|s| s.h3_fallbacks > 0).count(),
            h3_fallbacks: fallbacks,
            mean_fallback_wait_ms: if fallbacks == 0 {
                0.0
            } else {
                wait_ms / fallbacks as f64
            },
            conn_retries: samples.iter().map(|s| s.conn_retries).sum(),
            fault_dropped_packets: samples.iter().map(|s| s.fault_dropped).sum(),
            plts_ms,
        }
    }

    /// Nothing aborts or falls back in the control row. Under a total
    /// UDP blackhole TCP is untouched, H3 strands without fallback,
    /// and with fallback every page completes at a nonzero
    /// time-to-fallback penalty.
    fn check_smoke(matrix: &Table<FaultCell>) {
        for arm in Arm::ALL.map(Arm::label) {
            let c = matrix.cell("none", arm);
            assert_eq!(c.aborted, 0, "fault-free {arm} must complete all pages");
            assert_eq!(c.h3_fallbacks, 0, "fault-free {arm} must not fall back");
        }
        let h2 = matrix.cell("udp-blackhole 100%", "h2");
        assert_eq!(h2.aborted, 0, "TCP must ignore a UDP blackhole");
        let h3 = matrix.cell("udp-blackhole 100%", "h3");
        assert!(h3.aborted > 0, "blackholed H3 without fallback must strand");
        let fb = matrix.cell("udp-blackhole 100%", "h3+fallback");
        assert_eq!(fb.aborted, 0, "fallback must complete every page");
        assert!(fb.h3_fallbacks > 0, "fallbacks must be counted");
        assert!(
            fb.mean_fallback_wait_ms > 0.0,
            "time-to-fallback penalty must be nonzero"
        );
    }
}

/// The `fault_matrix` binary.
pub fn main() {
    sweep::main::<FaultScenario>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run;
    use h3cdn::{CampaignConfig, MeasurementCampaign, Vantage};

    #[test]
    fn full_blackhole_is_survived_only_with_fallback() {
        let campaign = MeasurementCampaign::new(CampaignConfig::small(4, 11));
        let m = run(
            &campaign,
            Vantage::Utah,
            &[FaultScenario::udp_blackhole(1.0)],
        );
        let h2 = m.cell("udp-blackhole 100%", "h2");
        let h3 = m.cell("udp-blackhole 100%", "h3");
        let fb = m.cell("udp-blackhole 100%", "h3+fallback");
        // TCP traffic never touches the blackhole.
        assert_eq!(h2.aborted, 0);
        assert_eq!(h2.fault_dropped_packets, 0);
        // Without fallback machinery, stranded H3 requests abort pages.
        assert!(h3.aborted > 0, "blackholed H3 must strand: {h3:?}");
        // With it, every page completes — over TCP, at a price.
        assert_eq!(fb.aborted, 0, "fallback must rescue every page");
        assert!(fb.h3_fallbacks > 0);
        assert!(fb.fallback_pages > 0);
        assert!(fb.mean_fallback_wait_ms > 0.0, "penalty must be nonzero");
        assert!(
            fb.plt_delta_vs_h2_ms > 0.0,
            "the rescue is not free: {}",
            fb.plt_delta_vs_h2_ms
        );
    }

    #[test]
    fn display_and_json_render() {
        let campaign = MeasurementCampaign::new(CampaignConfig::small(2, 5));
        let m = run(
            &campaign,
            Vantage::Utah,
            &[
                FaultScenario::control(),
                FaultScenario::blackout_ms(50, 400),
            ],
        );
        let text = m.to_string();
        assert!(text.contains("blackout 50-400ms"));
        assert!(text.contains("h3+fallback"));
        let json = serde_json::to_string(&m).expect("serialises");
        assert!(json.contains("fault_dropped_packets"));
    }
}
