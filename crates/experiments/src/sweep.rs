//! The scenario × arm sweep engine behind `fault_matrix`,
//! `path_dynamics` and `edge_overload`.
//!
//! The paper loads every page with two Chrome instances, one with QUIC
//! off and one with QUIC on. The resilience sweeps extend that method
//! to impaired paths, moving paths and finite edges, and add a third
//! arm with Chrome's fallback machinery. A sweep is a scenario type
//! implementing `Sweep`: how a scenario configures a visit, what one
//! page load reduces to, how a cell's samples reduce to a row, and the
//! invariants its `--smoke` run gates CI on. Everything else lives
//! here once: the arms, the `scenario × arm × site` job grid on the
//! campaign's durable runner, the result [`Table`] and its rendering,
//! the control-fidelity check and the binary's `main`.

use std::collections::BTreeMap;
use std::fmt;

use h3cdn::runner::durable::JobMeta;
use h3cdn::{MeasurementCampaign, ProtocolMode, Vantage, VisitConfig};
use h3cdn_web::{DomainTable, Webpage};
use serde::{Content, Deserialize, Serialize};

/// The browser arms every sweep loads each page with, over identical
/// paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Arm {
    /// QUIC disabled.
    H2,
    /// `enable-quic` without fallback machinery: requests stranded on
    /// a dead or refused QUIC connection stay stranded.
    H3NoFallback,
    /// Chrome-style graceful degradation: the QUIC-vs-TCP race, the
    /// broken-QUIC memory, re-dispatch of stranded requests and TCP
    /// re-dial backoff.
    H3WithFallback,
}

impl Arm {
    /// Every arm, in table order.
    pub(crate) const ALL: [Arm; 3] = [Arm::H2, Arm::H3NoFallback, Arm::H3WithFallback];

    /// The arm's table label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Arm::H2 => "h2",
            Arm::H3NoFallback => "h3",
            Arm::H3WithFallback => "h3+fallback",
        }
    }

    fn mode(self) -> ProtocolMode {
        match self {
            Arm::H2 => ProtocolMode::H2Only,
            Arm::H3NoFallback | Arm::H3WithFallback => ProtocolMode::H3Enabled,
        }
    }
}

/// A scenario type: one axis of impairments the three arms are swept
/// across.
pub(crate) trait Sweep: Sized + Sync {
    /// One page load's contribution to a cell, journaled per job under
    /// a durable context. `NaN` PLTs round-trip through JSON `null`
    /// back to the canonical [`f64::NAN`], so resumed sweeps stay
    /// bit-identical.
    type Sample: Serialize + Deserialize + Send;
    /// One `(scenario, arm)` row of the result table.
    type Cell: Row + Serialize;

    /// The binary's name: the experiment name of its checkpoints, and
    /// what a quarantined job's repro command runs. With `-` for `_`
    /// it prefixes the journal section.
    const BIN: &'static str;
    /// First word of every job label.
    const JOB: &'static str;
    /// Corpus cap under `--smoke`.
    const SMOKE_PAGES: usize;

    /// Scenario label used in reports.
    fn name(&self) -> &str;
    /// The scenario whose rows must reproduce the plain campaign visit
    /// paths bit for bit.
    fn control() -> Self;
    /// The full sweep, control first. A quarantined job's repro runs
    /// it.
    fn default_scenarios() -> Vec<Self>;
    /// The `--smoke` subset of [`default_scenarios`](Self::default_scenarios).
    fn smoke_scenarios() -> Vec<Self> {
        Self::default_scenarios()
    }
    /// Applies the scenario to a visit config already set to the arm
    /// and vantage.
    fn configure(&self, cfg: VisitConfig) -> VisitConfig;
    /// Loads one page under `cfg`, reducing the outcome (completed or
    /// not) to a sample.
    fn sample(&self, page: &Webpage, domains: &DomainTable, cfg: &VisitConfig) -> Self::Sample;
    /// Reduces the samples of scenario `si`'s `arm` cell to its row;
    /// `grid` holds every other cell.
    fn reduce(grid: &Grid<'_, Self>, si: usize, arm: Arm, samples: &[Self::Sample]) -> Self::Cell;
    /// The invariants the `--smoke` run enforces on top of control
    /// fidelity.
    ///
    /// # Panics
    ///
    /// Panics (failing the CI step) when the sweep's story regresses.
    fn check_smoke(table: &Table<Self::Cell>);
}

/// A sweep's row type: its table layout, and the labels that key it.
pub(crate) trait Row: Sized + 'static {
    /// The table's title line.
    const TITLE: &'static str;
    /// Width of the (left-aligned) scenario column.
    const SCENARIO_WIDTH: usize;
    /// The (right-aligned) columns after the scenario and arm labels.
    const COLUMNS: &'static [Column<Self>];
    /// Scenario label.
    fn scenario(&self) -> &str;
    /// Arm label.
    fn arm(&self) -> &str;
    /// PLTs in site order (per client within a site for a swarm);
    /// `NaN` marks a load that did not finish.
    fn plts_ms(&self) -> &[f64];
}

/// One table column: its header, its width, and how a row renders
/// into it.
pub(crate) type Column<C> = (&'static str, usize, fn(&C) -> String);

/// A sweep's result: rows scenario-major in input order, arms `h2`,
/// `h3`, `h3+fallback` within each scenario.
#[derive(Debug, Clone)]
pub struct Table<C> {
    /// One row per `(scenario, arm)`.
    pub rows: Vec<C>,
}

impl<C> Table<C> {
    /// The row for the given scenario and arm labels.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such row.
    pub(crate) fn cell(&self, scenario: &str, arm: &str) -> &C
    where
        C: Row,
    {
        self.rows
            .iter()
            .find(|r| r.scenario() == scenario && r.arm() == arm)
            .unwrap_or_else(|| panic!("table misses cell ({scenario}, {arm})"))
    }
}

/// `{"rows": [...]}`, as a derived impl would render it (the derive
/// shim takes no generic items).
impl<C: Serialize> Serialize for Table<C> {
    fn to_content(&self) -> Content {
        Content::Map(vec![("rows".to_owned(), self.rows.to_content())])
    }
}

impl<C: Row> fmt::Display for Table<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let scenario_width = C::SCENARIO_WIDTH;
        writeln!(f, "{}", C::TITLE)?;
        write!(f, "{:<scenario_width$} {:<12}", "scenario", "arm")?;
        for &(header, width, _) in C::COLUMNS {
            write!(f, " {header:>width$}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:<scenario_width$} {:<12}", row.scenario(), row.arm())?;
            for &(_, width, render) in C::COLUMNS {
                write!(f, " {:>width$}", render(row))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Milliseconds to one decimal; `"-"` when non-finite (nothing
/// completed, no reference).
pub(crate) fn fmt_ms(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "-".to_owned()
    }
}

/// Every cell's samples, keyed by scenario index and arm. A cell whose
/// jobs were all quarantined is absent.
pub(crate) struct Grid<'a, S: Sweep> {
    /// The swept scenarios, in input order.
    pub(crate) scenarios: &'a [S],
    cells: BTreeMap<(usize, Arm), Vec<S::Sample>>,
}

impl<S: Sweep> Grid<'_, S> {
    /// The samples of scenario `si`'s `arm` cell, if any job of it
    /// completed.
    pub(crate) fn samples(&self, si: usize, arm: Arm) -> Option<&[S::Sample]> {
        self.cells.get(&(si, arm)).map(Vec::as_slice)
    }
}

/// Runs the sweep: `scenarios × arms × sites` as one batch of keyed
/// jobs on the campaign's execution layer (the plain deterministic
/// pool, or the crash-safe runner when the campaign carries a durable
/// context). The key-ordered merge makes the output bit-identical for
/// every worker count. Quarantined loads are dropped from their cell
/// (shrinking its `pages` count) and reported through the campaign's
/// quarantine sink.
pub(crate) fn run<S: Sweep>(
    campaign: &MeasurementCampaign,
    vantage: Vantage,
    scenarios: &[S],
) -> Table<S::Cell> {
    let domains = &campaign.corpus().domains;
    let repro = repro::<S>(campaign, vantage);
    let mut jobs = Vec::new();
    for (si, sc) in scenarios.iter().enumerate() {
        for arm in Arm::ALL {
            let base = campaign
                .config()
                .visit
                .clone()
                .with_vantage(vantage)
                .with_mode(arm.mode())
                .with_h3_fallback(arm == Arm::H3WithFallback);
            let cfg = sc.configure(base);
            for (site, page) in campaign.corpus().pages.iter().enumerate() {
                let meta = JobMeta {
                    label: format!("{} '{}' {} site {site}", S::JOB, sc.name(), arm.label()),
                    repro: campaign.chaos_repro(site, repro.clone()),
                };
                let cfg = cfg.clone();
                jobs.push(((si, arm, site), meta, move || {
                    campaign.fire_chaos_hook(site);
                    sc.sample(page, domains, &cfg)
                }));
            }
        }
    }
    let mut cells: BTreeMap<(usize, Arm), Vec<S::Sample>> = BTreeMap::new();
    for ((si, arm, _site), s) in campaign.run_durable(&S::BIN.replace('_', "-"), jobs) {
        if let Some(s) = s {
            cells.entry((si, arm)).or_default().push(s);
        }
    }
    let grid = Grid { scenarios, cells };
    let rows = grid
        .cells
        .iter()
        .map(|(&(si, arm), samples)| S::reduce(&grid, si, arm, samples))
        .collect();
    Table { rows }
}

/// The command line that reruns the sweep with every setting that
/// changes its results: the binary on the default scenarios at this
/// corpus, seed, vantage and sim-event budget.
fn repro<S: Sweep>(campaign: &MeasurementCampaign, vantage: Vantage) -> String {
    let w = &campaign.config().workload;
    let mut repro = format!(
        "cargo run -q -p h3cdn-experiments --bin {} -- --pages {} --seed {} --vantage {}",
        S::BIN,
        w.num_pages,
        w.seed,
        vantage.name().to_lowercase()
    );
    if let Some(budget) = campaign.config().visit.max_sim_events {
        repro.push_str(&format!(" --max-sim-events {budget}"));
    }
    repro
}

/// Control fidelity: the control scenario's rows reproduce the plain
/// campaign visit paths bit for bit. `h2` matches the H2 visit; `h3`
/// and `h3+fallback` match the H3 visit, since the fallback machinery
/// is free on healthy paths.
///
/// # Panics
///
/// Panics when a control row is missing, short, or differs from the
/// campaign visit at any site.
pub(crate) fn assert_control_matches_campaign<S: Sweep>(
    table: &Table<S::Cell>,
    campaign: &MeasurementCampaign,
    vantage: Vantage,
) {
    let control = S::control();
    let pages = campaign.corpus().pages.len();
    for arm in Arm::ALL {
        let label = arm.label();
        let c = table.cell(control.name(), label);
        assert_eq!(
            c.plts_ms().len(),
            pages,
            "control {label} must load every page once"
        );
        for (site, plt) in c.plts_ms().iter().enumerate() {
            let want = campaign.visit(site, vantage, arm.mode()).plt_ms;
            assert_eq!(
                plt.to_bits(),
                want.to_bits(),
                "control {label} site {site} must match the campaign visit"
            );
        }
    }
}

/// A sweep binary's `main`: the common flags plus `--smoke`, which
/// caps the corpus at [`Sweep::SMOKE_PAGES`], runs the smoke scenario
/// subset and enforces control fidelity and the sweep's own
/// invariants.
pub(crate) fn main<S: Sweep>() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let mut opts = crate::parse_args_with(args.into_iter(), "--smoke   ", crate::PAPER_PAGES);
    if smoke {
        opts.pages = opts.pages.min(S::SMOKE_PAGES);
    }
    let campaign = crate::campaign_named(&opts, S::BIN);
    let scenarios = if smoke {
        S::smoke_scenarios()
    } else {
        S::default_scenarios()
    };
    let table = run(&campaign, opts.vantage, &scenarios);
    crate::emit(&opts, &table);
    if smoke {
        assert_control_matches_campaign::<S>(&table, &campaign, opts.vantage);
        S::check_smoke(&table);
        eprintln!("{} smoke OK", S::BIN);
    }
    crate::report_quarantine(&campaign);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_overload::OverloadScenario;
    use crate::fault_matrix::FaultScenario;
    use crate::path_dynamics::DynamicsScenario;
    use h3cdn::runner::RunnerConfig;
    use h3cdn::CampaignConfig;

    /// The control rows of `S` at 1 and 8 workers: bit-identical to
    /// each other (JSON renders every float in its shortest round-trip
    /// form) and to the plain campaign visit paths.
    fn control_matches_campaign_at_any_worker_count<S: Sweep>() {
        let cfg = CampaignConfig::small(3, 11);
        let serial = MeasurementCampaign::new(cfg.clone().with_runner(RunnerConfig::serial()));
        let parallel =
            MeasurementCampaign::new(cfg.with_runner(RunnerConfig::default().with_jobs(8)));
        let scenarios = [S::control()];
        let a = run(&serial, Vantage::Utah, &scenarios);
        let b = run(&parallel, Vantage::Utah, &scenarios);
        assert_eq!(a.rows.len(), 3);
        assert_eq!(
            serde_json::to_string(&a).expect("serialises"),
            serde_json::to_string(&b).expect("serialises"),
            "{} depends on the worker count",
            S::BIN
        );
        assert_control_matches_campaign::<S>(&a, &serial, Vantage::Utah);
    }

    #[test]
    fn control_rows_match_campaign_paths_bitwise() {
        control_matches_campaign_at_any_worker_count::<FaultScenario>();
        control_matches_campaign_at_any_worker_count::<DynamicsScenario>();
        control_matches_campaign_at_any_worker_count::<OverloadScenario>();
    }

    /// Names are unique, the default set starts with the control, and
    /// the smoke set is a subset of the default set, so a smoke run's
    /// repro command (which runs the default set) reruns every job.
    fn scenario_sets_are_well_formed<S: Sweep>() {
        let all: Vec<String> = S::default_scenarios()
            .iter()
            .map(|s| s.name().to_owned())
            .collect();
        assert_eq!(
            all[0],
            S::control().name(),
            "{} starts with the control",
            S::BIN
        );
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            all.len(),
            "{} scenario names must be unique",
            S::BIN
        );
        for s in S::smoke_scenarios() {
            assert!(
                all.iter().any(|n| n == s.name()),
                "{} smoke scenario {} is not a default scenario",
                S::BIN,
                s.name()
            );
        }
    }

    #[test]
    fn every_sweep_has_well_formed_scenario_sets() {
        scenario_sets_are_well_formed::<FaultScenario>();
        scenario_sets_are_well_formed::<DynamicsScenario>();
        scenario_sets_are_well_formed::<OverloadScenario>();
    }
}
