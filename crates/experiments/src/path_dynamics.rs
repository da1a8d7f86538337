//! The path-dynamics resilience sweep: continuous link variation ×
//! congestion control × queue discipline × protocol/fallback arms.
//!
//! The paper measures H3 on *static, healthy* CloudLab paths; this
//! experiment asks how its two Chrome instances would have fared on
//! paths that keep moving — a cellular handover, a Wi-Fi roam, an
//! oscillating bottleneck — with the access buffers either deep
//! (bufferbloat), shallow, or CoDel-managed, under both a loss-based
//! (Cubic) and a model-based (BBR) congestion controller.
//!
//! Every scenario loads each page three ways over identical dynamics:
//!
//! * **h2** — QUIC disabled.
//! * **h3** — `enable-quic` without fallback machinery.
//! * **h3+fallback** — Chrome-style graceful degradation.
//!
//! Each cell reports abort counts, the median PLT of completed loads,
//! queue-sojourn statistics (the bufferbloat signal), drop breakdowns
//! (tail vs AQM vs trace-driven), and a Fig. 9-style least-squares
//! slope of the cell's per-page PLTs against the same arm's static-path
//! control PLTs — slope 1 means the dynamics are free, slope 2 means
//! every control millisecond costs two. The control row is bit-identical
//! to the plain campaign visit paths for every worker count.

use h3cdn_analysis::{finite_median, linear_fit, median};
use h3cdn_browser::{try_visit_page, BrokenQuicCache};
use h3cdn_netsim::{DynamicsProfile, QueueDiscipline};
use h3cdn_transport::tls::TicketStore;
use h3cdn_transport::CcAlgorithm;
use h3cdn_web::{DomainTable, Webpage};
use serde::{Deserialize, Serialize};

use h3cdn::VisitConfig;

use crate::sweep::{self, fmt_ms, Arm, Column, Grid, Row, Sweep, Table};

/// One point of the sweep: a dynamics profile (or the static control),
/// a congestion controller, and an access-queue discipline.
#[derive(Debug, Clone)]
pub(crate) struct DynamicsScenario {
    /// Scenario label used in reports: `trace/cc/queue`.
    pub name: String,
    /// Congestion controller for both stacks.
    pub cc: CcAlgorithm,
    /// Queue discipline of the access links and dynamic bottlenecks.
    pub queue: QueueDiscipline,
    /// The trace profile; `None` leaves every path static.
    pub profile: Option<DynamicsProfile>,
}

impl DynamicsScenario {
    /// A dynamic scenario named `trace/cc/queue`.
    pub fn dynamic(profile: DynamicsProfile, cc: CcAlgorithm, queue: QueueDiscipline) -> Self {
        DynamicsScenario {
            name: format!("{}/{cc}/{queue}", profile.label()),
            cc,
            queue,
            profile: Some(profile),
        }
    }
}

/// One `(scenario, arm)` cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct DynamicsCell {
    /// Scenario label (`trace/cc/queue`).
    pub scenario: String,
    /// Arm label (`h2` / `h3` / `h3+fallback`).
    pub arm: String,
    /// Pages measured.
    pub pages: usize,
    /// Pages that could not finish.
    pub aborted: usize,
    /// Median PLT over completed loads (`NaN` when none completed).
    pub median_plt_ms: f64,
    /// Fig. 9-style least-squares slope of this cell's per-page PLTs
    /// against the same arm's control-cell PLTs (pages where both
    /// completed). `NaN` when fewer than two such pages exist.
    pub slope_vs_control: f64,
    /// R² of that fit.
    pub r_squared: f64,
    /// Median over pages of the per-visit mean queue sojourn — the
    /// bufferbloat signal.
    pub median_sojourn_ms: f64,
    /// Worst single-packet queue sojourn seen by any page.
    pub max_sojourn_ms: f64,
    /// Packets tail-dropped by full buffers, across all pages.
    pub tail_dropped: u64,
    /// Packets shed by CoDel, across all pages.
    pub aqm_dropped: u64,
    /// Packets consumed by the dynamics traces (loss or bottleneck
    /// drop), across all pages.
    pub dynamics_dropped: u64,
    /// Total H3→H2 fallbacks across all pages.
    pub h3_fallbacks: u64,
    /// Per-site PLTs in site order; `NaN` marks an aborted load.
    pub plts_ms: Vec<f64>,
    /// Per-site mean queue sojourns in site order.
    pub sojourns_ms: Vec<f64>,
}

impl Row for DynamicsCell {
    const TITLE: &'static str =
        "Path dynamics: traces x cc x queue x {h2, h3, h3+fallback} (per-cell aggregates)";
    const SCENARIO_WIDTH: usize = 28;
    const COLUMNS: &'static [Column<Self>] = &[
        ("pages", 6, |r| r.pages.to_string()),
        ("aborted", 8, |r| r.aborted.to_string()),
        ("med PLT ms", 12, |r| fmt_ms(r.median_plt_ms)),
        ("slope", 6, |r| fmt_fit(r.slope_vs_control)),
        ("r2", 5, |r| fmt_fit(r.r_squared)),
        ("med soj ms", 10, |r| format!("{:.2}", r.median_sojourn_ms)),
        ("max soj ms", 10, |r| format!("{:.1}", r.max_sojourn_ms)),
        ("tail", 6, |r| r.tail_dropped.to_string()),
        ("aqm", 5, |r| r.aqm_dropped.to_string()),
        ("dyn drop", 8, |r| r.dynamics_dropped.to_string()),
        ("fallbacks", 9, |r| r.h3_fallbacks.to_string()),
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
    mean_sojourn_ms: f64,
    max_sojourn_ms: f64,
    tail_dropped: u64,
    aqm_dropped: u64,
    dynamics_dropped: u64,
    h3_fallbacks: u64,
}

/// Fig. 9-style fit of a cell's PLTs against the same arm's control
/// PLTs, over pages where both completed. `NaN` slope when fewer than
/// two usable pages exist (or the control PLTs are degenerate).
fn fit_vs_control(control: &[f64], cell: &[f64]) -> (f64, f64) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (x, y) in control.iter().zip(cell) {
        if x.is_finite() && y.is_finite() {
            xs.push(*x);
            ys.push(*y);
        }
    }
    let spread = xs
        .iter()
        .any(|x| (x - xs.first().copied().unwrap_or(0.0)).abs() > f64::EPSILON);
    if xs.len() < 2 || !spread {
        return (f64::NAN, f64::NAN);
    }
    let fit = linear_fit(&xs, &ys);
    (fit.slope, fit.r_squared)
}

/// `"-"` for a non-finite fit statistic.
fn fmt_fit(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "-".to_owned()
    }
}

impl Sweep for DynamicsScenario {
    type Sample = Sample;
    type Cell = DynamicsCell;

    const BIN: &'static str = "path_dynamics";
    const JOB: &'static str = "dynamics";
    const SMOKE_PAGES: usize = 4;

    fn name(&self) -> &str {
        &self.name
    }

    /// No dynamics, Cubic, deep tail-drop: the exact pre-dynamics
    /// fabric.
    fn control() -> Self {
        DynamicsScenario {
            name: "static/cubic/droptail-deep".to_owned(),
            cc: CcAlgorithm::Cubic,
            queue: QueueDiscipline::DropTailDeep,
            profile: None,
        }
    }

    /// The control plus every trace × {cubic, bbr} × {droptail-deep,
    /// droptail-shallow, codel} combination (19 scenarios).
    fn default_scenarios() -> Vec<Self> {
        let mut v = vec![DynamicsScenario::control()];
        for profile in DynamicsProfile::ALL {
            for cc in [CcAlgorithm::Cubic, CcAlgorithm::Bbr] {
                for queue in [
                    QueueDiscipline::DropTailDeep,
                    QueueDiscipline::DropTailShallow,
                    QueueDiscipline::CoDel,
                ] {
                    v.push(DynamicsScenario::dynamic(profile, cc, queue));
                }
            }
        }
        v
    }

    /// The control plus the four cells the smoke invariants compare
    /// (Cubic-vs-BBR bufferbloat on the deep-buffered oscillating
    /// bottleneck, CoDel on the same trace, and the handover trace the
    /// fallback arm must survive).
    fn smoke_scenarios() -> Vec<Self> {
        vec![
            DynamicsScenario::control(),
            DynamicsScenario::dynamic(
                DynamicsProfile::OscillatingBottleneck,
                CcAlgorithm::Cubic,
                QueueDiscipline::DropTailDeep,
            ),
            DynamicsScenario::dynamic(
                DynamicsProfile::OscillatingBottleneck,
                CcAlgorithm::Bbr,
                QueueDiscipline::DropTailDeep,
            ),
            DynamicsScenario::dynamic(
                DynamicsProfile::OscillatingBottleneck,
                CcAlgorithm::Cubic,
                QueueDiscipline::CoDel,
            ),
            DynamicsScenario::dynamic(
                DynamicsProfile::CellularHandover,
                CcAlgorithm::Cubic,
                QueueDiscipline::DropTailDeep,
            ),
        ]
    }

    fn configure(&self, cfg: VisitConfig) -> VisitConfig {
        let mut cfg = cfg.with_queue(self.queue).with_path_dynamics(self.profile);
        cfg.cc = self.cc;
        cfg
    }

    fn sample(&self, page: &Webpage, domains: &DomainTable, cfg: &VisitConfig) -> Sample {
        let (plt_ms, stats, resilience) = match try_visit_page(
            page,
            domains,
            cfg,
            TicketStore::new(),
            BrokenQuicCache::new(),
        ) {
            Ok(o) => (o.har.plt_ms, o.stats, o.resilience),
            Err(a) => (f64::NAN, a.stats, a.resilience),
        };
        Sample {
            plt_ms,
            mean_sojourn_ms: stats.queue.mean_sojourn_ms(),
            max_sojourn_ms: stats.queue.max_sojourn_ns as f64 / 1e6,
            tail_dropped: stats.queue.tail_dropped,
            aqm_dropped: stats.queue.aqm_dropped,
            dynamics_dropped: stats.packets_dynamics_dropped,
            h3_fallbacks: resilience.h3_fallbacks,
        }
    }

    /// The slope fit runs against the same arm's cell of the first
    /// static scenario, if present.
    fn reduce(grid: &Grid<'_, Self>, si: usize, arm: Arm, samples: &[Sample]) -> DynamicsCell {
        let plts = |samples: &[Sample]| samples.iter().map(|s| s.plt_ms).collect::<Vec<_>>();
        let control = grid
            .scenarios
            .iter()
            .position(|s| s.profile.is_none())
            .and_then(|ci| grid.samples(ci, arm));
        let plts_ms = plts(samples);
        let (slope, r2) = match control {
            Some(control) => fit_vs_control(&plts(control), &plts_ms),
            None => (f64::NAN, f64::NAN),
        };
        let sojourns: Vec<f64> = samples.iter().map(|s| s.mean_sojourn_ms).collect();
        let (median_plt_ms, aborted) = finite_median(&plts_ms);
        DynamicsCell {
            scenario: grid.scenarios[si].name.clone(),
            arm: arm.label().to_owned(),
            pages: samples.len(),
            aborted,
            median_plt_ms,
            slope_vs_control: slope,
            r_squared: r2,
            median_sojourn_ms: median(&sojourns),
            max_sojourn_ms: samples.iter().map(|s| s.max_sojourn_ms).fold(0.0, f64::max),
            tail_dropped: samples.iter().map(|s| s.tail_dropped).sum(),
            aqm_dropped: samples.iter().map(|s| s.aqm_dropped).sum(),
            dynamics_dropped: samples.iter().map(|s| s.dynamics_dropped).sum(),
            h3_fallbacks: samples.iter().map(|s| s.h3_fallbacks).sum(),
            plts_ms,
            sojourns_ms: sojourns,
        }
    }

    /// BBR carries less standing queue than Cubic in the deep-buffered
    /// oscillating bottleneck, and the handover trace does not strand a
    /// fallback-armed browser.
    fn check_smoke(sweep: &Table<DynamicsCell>) {
        // Bufferbloat: BBR's model keeps the deep oscillating-bottleneck
        // buffer emptier than Cubic's fill-until-loss probing.
        let cubic = sweep.cell("oscillate/cubic/droptail-deep", "h3");
        let bbr = sweep.cell("oscillate/bbr/droptail-deep", "h3");
        assert!(
            bbr.median_sojourn_ms < cubic.median_sojourn_ms,
            "BBR must carry less standing queue than Cubic: {:.3}ms vs {:.3}ms",
            bbr.median_sojourn_ms,
            cubic.median_sojourn_ms
        );
        let fb = sweep.cell("handover/cubic/droptail-deep", "h3+fallback");
        assert_eq!(
            fb.aborted, 0,
            "fallback must complete every page across handovers"
        );
    }
}

/// The `path_dynamics` binary.
pub fn main() {
    sweep::main::<DynamicsScenario>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run;
    use h3cdn::{CampaignConfig, MeasurementCampaign, Vantage};

    #[test]
    fn dynamics_slow_pages_and_populate_queue_stats() {
        let campaign = MeasurementCampaign::new(CampaignConfig::small(3, 11));
        let scenarios = vec![
            DynamicsScenario::control(),
            DynamicsScenario::dynamic(
                DynamicsProfile::OscillatingBottleneck,
                CcAlgorithm::Cubic,
                QueueDiscipline::DropTailDeep,
            ),
        ];
        let sweep = run(&campaign, Vantage::Utah, &scenarios);
        assert_eq!(sweep.rows.len(), 6);
        let control = sweep.cell("static/cubic/droptail-deep", "h3");
        let osc = sweep.cell("oscillate/cubic/droptail-deep", "h3");
        assert_eq!(osc.aborted, 0, "oscillation must not strand pages");
        assert!(
            osc.median_plt_ms > control.median_plt_ms,
            "a 40-to-4 Mbps bottleneck must cost time: {} vs {}",
            osc.median_plt_ms,
            control.median_plt_ms
        );
        assert!(osc.median_sojourn_ms > 0.0);
        assert!(osc.max_sojourn_ms > 0.0);
        // The control's fit against itself is the identity line.
        assert!((control.slope_vs_control - 1.0).abs() < 1e-9);
        assert!((control.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_and_json_render() {
        let campaign = MeasurementCampaign::new(CampaignConfig::small(2, 5));
        let scenarios = vec![
            DynamicsScenario::control(),
            DynamicsScenario::dynamic(
                DynamicsProfile::CellularHandover,
                CcAlgorithm::Bbr,
                QueueDiscipline::CoDel,
            ),
        ];
        let sweep = run(&campaign, Vantage::Utah, &scenarios);
        let text = sweep.to_string();
        assert!(text.contains("handover/bbr/codel"));
        assert!(text.contains("h3+fallback"));
        let json = serde_json::to_string(&sweep).expect("serialises");
        assert!(json.contains("dynamics_dropped"));
        assert!(json.contains("slope_vs_control"));
    }

    #[test]
    fn scenario_sets_are_well_formed() {
        let all = DynamicsScenario::default_scenarios();
        assert_eq!(all.len(), 1 + 3 * 2 * 3);
        assert_eq!(all[0].name, "static/cubic/droptail-deep");
        let smoke = DynamicsScenario::smoke_scenarios();
        assert!(smoke.iter().any(|s| s.profile.is_none()));
        assert!(smoke
            .iter()
            .any(|s| s.name == "oscillate/bbr/droptail-deep"));
    }
}
