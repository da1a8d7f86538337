//! `sim_throughput` — the simulator hot-path benchmark and perf ratchet.
//!
//! Measures raw event-loop throughput (events/sec) and end-to-end visit
//! throughput (visits/sec) on a fixed campaign workload: every page of a
//! seeded corpus is visited in H2-only and H3-enabled mode, then once
//! more in a consecutive H3 pass that carries the ticket store forward
//! (session resumption exercises the 0-RTT paths). The event *count* of
//! the workload is deterministic; only the elapsed wall time varies.
//!
//! ```text
//! sim_throughput [--pages N] [--seed S] [--reps R] [--smoke]
//!                [--json PATH]              write the measurement (machine-readable)
//!                [--check PATH]             gate against the last committed entry
//!                [--tolerance F]            allowed events/sec regression (default 0.35,
//!                                           i.e. fail below 65% of baseline; the
//!                                           H3CDN_BENCH_TOLERANCE env var overrides)
//!                [--update-baseline PATH]   append this measurement to the trajectory
//!                [--label L]                trajectory label (default: git hash)
//! ```
//!
//! The committed trajectory lives in `BENCH_sim.json` at the repo root;
//! `scripts/ci.sh` runs `--smoke --check BENCH_sim.json` so an
//! events/sec regression beyond the tolerance fails CI, exactly like the
//! panic ratchet. Structural changes that legitimately alter the event
//! count or the achievable rate are recorded with
//! `--update-baseline BENCH_sim.json` and justified in review.
//!
//! `--population` swaps the workload for the population-scale
//! page-record generator (`h3cdn_web::population`): visits count
//! generated pages, events count generated requests. Its rows ratchet
//! independently — `--check` matches baseline entries on
//! `(pages, seed, reps)`, so the visit sweep and the population sweep
//! coexist in one trajectory file.

use std::process::ExitCode;
use std::time::Instant;

use h3cdn_browser::{try_visit_page, BrokenQuicCache, ProtocolMode, VisitConfig, VisitOutcome};
use h3cdn_transport::tls::TicketStore;
use h3cdn_web::{
    generate, page_record, Corpus, DomainTable, PopulationSpec, Webpage, WorkloadSpec,
};
use serde::{Deserialize, Serialize};

/// Default corpus size for a full run.
const DEFAULT_PAGES: usize = 12;
/// Corpus size in `--smoke` mode (the CI gate).
const SMOKE_PAGES: usize = 5;
/// Population size for a full `--population` run.
const POPULATION_PAGES: usize = 100_000;
/// Population size in `--population --smoke` mode (the CI gate).
const POPULATION_SMOKE_PAGES: usize = 20_000;
/// Fixed corpus seed: the workload must be identical across runs and
/// machines for the events count to be comparable.
const DEFAULT_SEED: u64 = 0xBE_AC4;
/// Default allowed fractional events/sec regression before the gate
/// fails (generous, because CI wall-clock is noisy; the deterministic
/// event count is gated exactly).
const DEFAULT_TOLERANCE: f64 = 0.35;

/// One measurement in the committed trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchEntry {
    /// Provenance label (git hash or a human-chosen tag).
    label: String,
    /// Corpus size of the workload.
    pages: usize,
    /// Corpus seed of the workload.
    seed: u64,
    /// Timed repetitions of the sweep.
    reps: usize,
    /// Page visits performed (all reps).
    visits: u64,
    /// Simulator events dispatched (all reps; deterministic).
    events: u64,
    /// Wall-clock time for all reps, milliseconds.
    elapsed_ms: f64,
    /// Events dispatched per wall-clock second.
    events_per_sec: f64,
    /// Visits completed per wall-clock second.
    visits_per_sec: f64,
}

/// The committed `BENCH_sim.json` trajectory: one entry per recorded
/// measurement, oldest first. The ratchet gate compares against the
/// last entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Trajectory {
    /// File format version.
    schema: u32,
    /// Human description of the fixed workload.
    workload: String,
    /// Recorded measurements, oldest first.
    entries: Vec<BenchEntry>,
}

#[derive(Debug)]
struct Args {
    pages: usize,
    seed: u64,
    reps: usize,
    json: Option<String>,
    check: Option<String>,
    update_baseline: Option<String>,
    tolerance: f64,
    label: Option<String>,
    population: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        pages: DEFAULT_PAGES,
        seed: DEFAULT_SEED,
        reps: 3,
        json: None,
        check: None,
        update_baseline: None,
        tolerance: std::env::var("H3CDN_BENCH_TOLERANCE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_TOLERANCE),
        label: None,
        population: false,
    };
    let mut smoke = false;
    let mut pages_explicit = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pages" => {
                a.pages = expect_parse(args.next(), "--pages");
                pages_explicit = true;
            }
            "--seed" => a.seed = expect_parse(args.next(), "--seed"),
            "--reps" => a.reps = expect_parse(args.next(), "--reps"),
            "--smoke" => {
                smoke = true;
                a.reps = 2;
            }
            "--json" => a.json = Some(expect_value(args.next(), "--json")),
            "--check" => a.check = Some(expect_value(args.next(), "--check")),
            "--tolerance" => a.tolerance = expect_parse(args.next(), "--tolerance"),
            "--update-baseline" => {
                a.update_baseline = Some(expect_value(args.next(), "--update-baseline"));
            }
            "--label" => a.label = Some(expect_value(args.next(), "--label")),
            "--population" => a.population = true,
            "--help" | "-h" => {
                println!(
                    "sim_throughput: simulator hot-path benchmark + perf ratchet\n\
                     flags: --pages N  --seed S  --reps R  --smoke  --json PATH\n\
                     \x20      --check PATH  --tolerance F  --update-baseline PATH  --label L\n\
                     \x20      --population  (benchmark the population page-record generator\n\
                     \x20                     instead of the visit sweep; its own baseline row)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("sim_throughput: unknown flag {other:?}; try --help");
                std::process::exit(2);
            }
        }
    }
    if !pages_explicit {
        a.pages = match (a.population, smoke) {
            (true, true) => POPULATION_SMOKE_PAGES,
            (true, false) => POPULATION_PAGES,
            (false, true) => SMOKE_PAGES,
            (false, false) => DEFAULT_PAGES,
        };
    }
    for (flag, value) in [("--pages", a.pages), ("--reps", a.reps)] {
        if value == 0 {
            eprintln!("sim_throughput: {flag} must be positive");
            std::process::exit(2);
        }
    }
    // A NaN or negative tolerance would disarm or invert the wall-clock
    // gate without a word.
    if !a.tolerance.is_finite() || a.tolerance < 0.0 {
        eprintln!("sim_throughput: --tolerance must be a non-negative number");
        std::process::exit(2);
    }
    a
}

fn expect_value(v: Option<String>, flag: &str) -> String {
    v.unwrap_or_else(|| {
        eprintln!("sim_throughput: {flag} expects a value");
        std::process::exit(2);
    })
}

fn expect_parse<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    expect_value(v, flag).parse().unwrap_or_else(|_| {
        eprintln!("sim_throughput: {flag} expects a number");
        std::process::exit(2);
    })
}

/// One visit of the fixed workload, whose pages always complete.
fn visit(
    page: &Webpage,
    domains: &DomainTable,
    cfg: &VisitConfig,
    tickets: TicketStore,
) -> VisitOutcome {
    try_visit_page(page, domains, cfg, tickets, BrokenQuicCache::new())
        .expect("the fixed workload's visits complete")
}

/// One sweep over the fixed workload; returns `(visits, events)`.
fn sweep(corpus: &Corpus) -> (u64, u64) {
    let mut visits = 0u64;
    let mut events = 0u64;
    // Isolated visits, both protocol modes.
    for mode in [ProtocolMode::H2Only, ProtocolMode::H3Enabled] {
        let cfg = VisitConfig::default().with_mode(mode);
        for page in &corpus.pages {
            let outcome = visit(page, &corpus.domains, &cfg, TicketStore::new());
            visits += 1;
            events += outcome.stats.sim_events;
        }
    }
    // Consecutive H3 pass carrying the ticket store (0-RTT resumption).
    let cfg = VisitConfig::default();
    let mut tickets = TicketStore::new();
    for page in &corpus.pages {
        let outcome = visit(page, &corpus.domains, &cfg, tickets);
        tickets = outcome.tickets;
        visits += 1;
        events += outcome.stats.sim_events;
    }
    (visits, events)
}

/// One sweep over the population workload: generates every page record
/// of a fixed synthetic Internet. `visits` counts pages, `events`
/// counts generated requests (both deterministic).
fn population_sweep(spec: &PopulationSpec) -> (u64, u64) {
    let mut visits = 0u64;
    let mut events = 0u64;
    for site in 0..spec.num_pages {
        let r = page_record(spec, site);
        visits += 1;
        events += u64::from(r.requests);
    }
    (visits, events)
}

fn measure(args: &Args) -> BenchEntry {
    let sweep_once: Box<dyn Fn() -> (u64, u64)> = if args.population {
        let spec = PopulationSpec::default()
            .with_pages(args.pages as u64)
            .with_seed(args.seed);
        Box::new(move || population_sweep(&spec))
    } else {
        let corpus = generate(
            &WorkloadSpec::default()
                .with_pages(args.pages)
                .with_seed(args.seed),
        );
        Box::new(move || sweep(&corpus))
    };
    // Warmup: one untimed sweep (page/cache/branch-predictor warm state).
    let (warm_visits, warm_events) = sweep_once();
    let start = Instant::now();
    let mut visits = 0u64;
    let mut events = 0u64;
    for _ in 0..args.reps {
        let (v, e) = sweep_once();
        visits += v;
        events += e;
    }
    let elapsed = start.elapsed();
    assert_eq!(
        (
            warm_visits * args.reps as u64,
            warm_events * args.reps as u64
        ),
        (visits, events),
        "the workload must be deterministic across sweeps"
    );
    let secs = elapsed.as_secs_f64().max(1e-9);
    BenchEntry {
        label: args
            .label
            .clone()
            .unwrap_or_else(h3cdn::persist::workspace_git_hash),
        pages: args.pages,
        seed: args.seed,
        reps: args.reps,
        visits,
        events,
        elapsed_ms: secs * 1e3,
        events_per_sec: events as f64 / secs,
        visits_per_sec: visits as f64 / secs,
    }
}

fn load_trajectory(path: &str) -> Result<Trajectory, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: malformed trajectory: {e}"))
}

fn store_trajectory(path: &str, t: &Trajectory) -> Result<(), String> {
    let json = serde_json::to_string_pretty(t).map_err(|e| format!("serialise: {e}"))?;
    std::fs::write(path, json + "\n").map_err(|e| format!("{path}: cannot write: {e}"))
}

fn workload_name(args: &Args) -> String {
    if args.population {
        format!(
            "population sweep: {} page records (seed {:#x}), events = generated requests",
            args.pages, args.seed
        )
    } else {
        format!(
            "campaign sweep: {} pages (seed {:#x}), h2 + h3 isolated visits + consecutive h3 pass",
            args.pages, args.seed
        )
    }
}

/// Gates `fresh` against the last committed entry *for the same
/// workload* — entries are matched on `(pages, seed, reps)`, so the
/// static visit sweep and the population sweep ratchet independently
/// inside one trajectory file. Returns an error message when the
/// ratchet trips.
fn check(fresh: &BenchEntry, baseline_path: &str, tolerance: f64) -> Result<String, String> {
    let traj = load_trajectory(baseline_path)?;
    let Some(base) = traj
        .entries
        .iter()
        .rev()
        .find(|e| (e.pages, e.seed, e.reps) == (fresh.pages, fresh.seed, fresh.reps))
    else {
        return Err(format!(
            "{baseline_path}: no trajectory entry matches this workload \
             ({} pages / seed {:#x} / {} reps) — record one with \
             `--update-baseline {baseline_path}`, passing the same flags",
            fresh.pages, fresh.seed, fresh.reps
        ));
    };
    // Deterministic structural gate: the event count of the fixed
    // workload only moves when the stack itself changes behaviour, so
    // any difference at all trips it.
    if fresh.events != base.events {
        return Err(format!(
            "event count changed ({} -> {}): the workload's dispatch sequence \
             changed structurally; if intended, record it with \
             `sim_throughput --smoke --update-baseline {baseline_path}`",
            base.events, fresh.events
        ));
    }
    // Wall-clock gate: events/sec must not regress beyond the tolerance.
    let floor = base.events_per_sec * (1.0 - tolerance);
    if fresh.events_per_sec < floor {
        return Err(format!(
            "events/sec regressed: {:.0} vs baseline {:.0} (floor {:.0} at {:.0}% tolerance); \
             if this machine is simply slower, raise H3CDN_BENCH_TOLERANCE; if the change \
             is a justified trade, record it with \
             `sim_throughput --smoke --update-baseline {baseline_path}`",
            fresh.events_per_sec,
            base.events_per_sec,
            floor,
            tolerance * 100.0
        ));
    }
    Ok(format!(
        "events/sec {:.0} vs baseline {:.0} ({:+.1}%), event count {} unchanged",
        fresh.events_per_sec,
        base.events_per_sec,
        (fresh.events_per_sec / base.events_per_sec - 1.0) * 100.0,
        fresh.events
    ))
}

fn main() -> ExitCode {
    let args = parse_args();
    let entry = measure(&args);
    println!(
        "sim_throughput: {} pages x {} reps: {} visits, {} events in {:.0} ms",
        args.pages, args.reps, entry.visits, entry.events, entry.elapsed_ms
    );
    println!(
        "sim_throughput: {:.0} events/sec, {:.1} visits/sec",
        entry.events_per_sec, entry.visits_per_sec
    );

    if let Some(path) = &args.json {
        let traj = Trajectory {
            schema: 1,
            workload: workload_name(&args),
            entries: vec![entry.clone()],
        };
        if let Err(e) = store_trajectory(path, &traj) {
            eprintln!("sim_throughput: {e}");
            return ExitCode::from(2);
        }
        println!("sim_throughput: wrote {path}");
    }

    if let Some(path) = &args.update_baseline {
        let mut traj = load_trajectory(path).unwrap_or(Trajectory {
            schema: 1,
            workload: workload_name(&args),
            entries: Vec::new(),
        });
        traj.entries.push(entry.clone());
        if let Err(e) = store_trajectory(path, &traj) {
            eprintln!("sim_throughput: {e}");
            return ExitCode::from(2);
        }
        println!(
            "sim_throughput: appended trajectory entry #{} to {path}",
            traj.entries.len()
        );
    }

    if let Some(path) = &args.check {
        match check(&entry, path, args.tolerance) {
            Ok(msg) => println!("sim_throughput: ratchet OK — {msg}"),
            Err(msg) => {
                eprintln!("sim_throughput: RATCHET FAILED — {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
