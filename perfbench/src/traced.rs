//! The traced run: the workload driven through each layer's public
//! functions under spans, then the isolated layer benches, then a probe
//! of the layers the workload does not drive.
//!
//! Each workload's traced pipeline makes the calls its untraced run
//! makes inside the library — one corpus or spec, the runner's keyed
//! jobs, `browser::try_visit_page` / `run_swarm`, the pair reduction,
//! the figure reducers, the journal writes and the resume — and must
//! produce the same checked output, so the spans time the same work.
//!
//! Per-layer metrics come from the workload's own spans and counts. A
//! timing the workload does not produce (a browser visit on
//! `population`, say) is taken from the probe: the other workloads'
//! pipelines at the smoke-test scale and the default seed. Counts are
//! always the workload's own and read 0 when it does not touch the
//! layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use h3cdn::browser::{
    run_swarm, try_visit_page, BrokenQuicCache, FaultSpec, SwarmConfig, VisitOutcome, VisitStats,
};
use h3cdn::cdn::EdgeStats;
use h3cdn::har::{HarPage, PageComparison};
use h3cdn::netsim::FaultPlan;
use h3cdn::persist::RunDir;
use h3cdn::runner::durable::DurableContext;
use h3cdn::transport::tls::TicketStore;
use h3cdn::web::{page_record, DomainTable, Webpage};
use h3cdn::{run_keyed, run_keyed_streaming, MeasurementCampaign, ProtocolMode};
use h3cdn::{ShardedJournal, Vantage, VisitConfig};
use h3cdn_analysis::{finite_mean, finite_median, finite_quantile, QuantileSketch, Welford};
use h3cdn_experiments::edge_overload::{self, OverloadCell, OverloadSweep};
use h3cdn_experiments::population;

use crate::check::{json, Checks, Fnv};
use crate::trace::{mean, quantile, Recorder};
use crate::workloads::{
    self, campaign_config, candidates, corpus_seed, dir_bytes, fresh_run_dir, manifest, median,
    population_spec, runner, CampaignResult,
};
use crate::{layers, Args, Metric, Outcome, Scale, Workload, DEFAULT_SEED, WORKERS};

/// One protocol side of a paired visit, keyed `(vantage, site, side)`.
type Side = ((u32, u32, u32), Option<HarPage>);

/// Where a traced job's spans hang: its job id and enclosing span.
#[derive(Debug, Clone, Copy)]
struct Ctx {
    job: u64,
    parent: u64,
}

/// Inputs of one traced pipeline.
struct Inputs<'a> {
    seed: u64,
    scale: Scale,
    scratch: &'a Path,
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let inputs = Inputs {
        seed: args.seed,
        scale: args.scale,
        scratch: &args.scratch,
    };

    let untraced = untraced_rate(args.workload, &inputs);
    let rec = Recorder::new();
    let traced = pipeline(args.workload, &rec, &inputs, &mut checks);
    let overhead = 100.0 * (untraced / traced - 1.0);
    eprintln!(
        "perfbench: {} visits/s untraced {untraced:.1}, traced {traced:.1} \
         (tracing overhead {overhead:+.1} %)",
        args.workload.name()
    );

    let isolated = layers::measure();

    let probe_dir = args.scratch.join("probe");
    let probe: Vec<Recorder> = Workload::ALL
        .into_iter()
        .filter(|&w| w != args.workload)
        .map(|w| {
            let r = Recorder::new();
            let tiny = Inputs {
                seed: DEFAULT_SEED,
                scale: Scale::Tiny,
                scratch: &probe_dir,
            };
            pipeline(w, &r, &tiny, &mut checks);
            r
        })
        .collect();

    let (metrics, sources) = layer_metrics(&rec, &probe, isolated);
    report(args, &rec, &metrics, &sources, untraced, traced);
    let _ = std::fs::remove_dir_all(&args.scratch);
    Outcome { checks, metrics }
}

/// One round's work, untraced, in whole-workload calls (the overhead
/// baseline), in visits per second of wall time.
fn untraced_rate(w: Workload, inp: &Inputs) -> f64 {
    let sizes = inp.scale.sizes();
    let (visits, secs) = match w {
        Workload::Campaign => {
            let pages = sizes.campaign_pages;
            let c = MeasurementCampaign::new(campaign_config(
                pages,
                corpus_seed(inp.seed, pages, candidates(pages)),
                WORKERS,
                Vantage::ALL.to_vec(),
            ));
            let (out, secs) = workloads::timed(|| workloads::campaign_cycle(&c));
            (out.visits(), secs)
        }
        Workload::Swarm => {
            let pages = sizes.swarm_pages;
            let c = MeasurementCampaign::new(campaign_config(
                pages,
                corpus_seed(inp.seed, pages, candidates(pages)),
                WORKERS,
                vec![Vantage::Utah],
            ));
            let scenarios = edge_overload::default_scenarios();
            let (sweep, secs) =
                workloads::timed(|| edge_overload::run(&c, Vantage::Utah, &scenarios));
            (workloads::swarm_visits(&sweep), secs)
        }
        Workload::Journaled => {
            let root = inp.scratch.join("journaled-untraced");
            let pages = sizes.journaled_pages;
            let corpus = corpus_seed(inp.seed, pages, candidates(pages));
            let (out, secs) =
                workloads::timed(|| workloads::journaled_fresh(&root, pages, corpus, WORKERS).0);
            (2 * out.len() as u64, secs)
        }
        Workload::Population => {
            let spec = population_spec(sizes.population_records, inp.seed);
            let root = inp.scratch.join("population-untraced");
            let m = manifest(Workload::Population, inp.seed, sizes.population_records);
            let (summary, secs) = workloads::timed(|| {
                let run = fresh_run_dir(&root, &m).expect("run directory");
                population::run(
                    &spec,
                    &runner(WORKERS),
                    population::DEFAULT_WINDOW,
                    Some(&run),
                )
                .0
            });
            (summary.pages, secs)
        }
    };
    visits as f64 / secs
}

/// Runs the workload's traced pipeline; returns its traced visits per
/// second.
fn pipeline(w: Workload, rec: &Recorder, inp: &Inputs, checks: &mut Checks) -> f64 {
    let rate = match w {
        Workload::Campaign => campaign(rec, inp, checks),
        Workload::Swarm => swarm(rec, inp, checks),
        Workload::Journaled => journaled(rec, inp, checks),
        Workload::Population => population(rec, inp, checks),
    };
    // Exact counts must repeat: pin their digest (the streaming
    // window's high-water mark depends on scheduling and is left out).
    let mut h = Fnv::new();
    for (name, v) in rec.counts() {
        if name != "runner.peak_buffered" {
            h.bytes(name.as_bytes()).u64(v);
        }
    }
    checks.pinned(w, inp.scale, inp.seed, "counts", h.finish());
    rate
}

/// Runs keyed jobs on the runner inside a `runner.phase` span; every
/// job runs inside a `runner.job` span of its own job id.
fn phase<K, T, F>(rec: &Recorder, work: Vec<(K, F)>) -> Vec<(K, T)>
where
    K: Ord + Send,
    T: Send,
    F: FnOnce(Ctx) -> T + Send,
{
    rec.span("runner.phase", 0, 0, |phase| {
        let wrapped: Vec<(K, _)> = work
            .into_iter()
            .enumerate()
            .map(|(i, (key, f))| {
                let job = i as u64 + 1;
                let run =
                    move || rec.span("runner.job", job, phase, |id| f(Ctx { job, parent: id }));
                (key, run)
            })
            .collect();
        run_keyed(&runner(WORKERS), wrapped)
    })
}

fn add_visit_stats(rec: &Recorder, s: &VisitStats) {
    rec.add("sim_core.events", s.sim_events);
    rec.add("netsim.packets_delivered", s.packets_delivered);
    rec.add("netsim.packets_lost", s.packets_lost);
    rec.add(
        "netsim.queue_drops",
        s.queue.tail_dropped + s.queue.aqm_dropped,
    );
}

/// One page load under a span named `name`; `None` when it aborted.
fn traced_visit(
    rec: &Recorder,
    ctx: Ctx,
    name: &'static str,
    page: &Webpage,
    domains: &DomainTable,
    cfg: &VisitConfig,
    tickets: TicketStore,
) -> Option<VisitOutcome> {
    let out = rec.span(name, ctx.job, ctx.parent, |_| {
        try_visit_page(page, domains, cfg, tickets, BrokenQuicCache::new())
    });
    rec.add("browser.clients", 1);
    match out {
        Ok(o) => {
            rec.add("browser.completed", 1);
            rec.add("browser.har_entries", o.har.entries.len() as u64);
            add_visit_stats(rec, &o.stats);
            Some(o)
        }
        Err(aborted) => {
            add_visit_stats(rec, &aborted.stats);
            None
        }
    }
}

const SIDES: [(u32, ProtocolMode, &str); 2] = [
    (0, ProtocolMode::H2Only, "browser.visit.h2"),
    (1, ProtocolMode::H3Enabled, "browser.visit.h3"),
];

/// Paired isolated visits of `sites` from `vantages`, keyed like the
/// campaign's `compare_batch`, reduced to comparisons.
/// `journal` sees every completed side with its journal sequence number.
fn traced_pairs(
    rec: &Recorder,
    c: &MeasurementCampaign,
    checks: &mut Checks,
    journal: &(dyn Fn(Ctx, u64, &HarPage) + Sync),
) -> Vec<PageComparison> {
    let corpus = c.corpus();
    let mut work = Vec::new();
    for (vi, &v) in c.vantages().iter().enumerate() {
        for site in 0..corpus.pages.len() {
            for (variant, mode, name) in SIDES {
                let cfg = c.config().visit.clone().with_vantage(v).with_mode(mode);
                let seq = work.len() as u64;
                work.push(((vi as u32, site as u32, variant), move |ctx: Ctx| {
                    let o = traced_visit(
                        rec,
                        ctx,
                        name,
                        &corpus.pages[site],
                        &corpus.domains,
                        &cfg,
                        TicketStore::new(),
                    )?;
                    journal(ctx, seq, &o.har);
                    Some(o.har)
                }));
            }
        }
    }
    let sides = phase(rec, work);
    pair_up(rec, c, &sides, checks)
}

/// Pairs H2/H3 sides (in key order) into comparisons.
fn pair_up(
    rec: &Recorder,
    c: &MeasurementCampaign,
    sides: &[Side],
    checks: &mut Checks,
) -> Vec<PageComparison> {
    let mut out = Vec::with_capacity(sides.len() / 2);
    for pair in sides.chunks_exact(2) {
        let ((_, site, _), h2) = &pair[0];
        let (_, h3) = &pair[1];
        let (Some(h2), Some(h3)) = (h2, h3) else {
            checks.fail(1, "pair with an aborted side");
            continue;
        };
        let page = &c.corpus().pages[*site as usize];
        out.push(rec.span("har.reduce", 0, 0, |_| c.build_comparison(page, h2, h3)));
    }
    out
}

// ---------------------------------------------------------------------------
// campaign

fn campaign(rec: &Recorder, inp: &Inputs, checks: &mut Checks) -> f64 {
    let pages = inp.scale.sizes().campaign_pages;
    let c = rec.span("web.generate", 0, 0, |_| {
        MeasurementCampaign::new(campaign_config(
            pages,
            corpus_seed(inp.seed, pages, candidates(pages)),
            WORKERS,
            Vantage::ALL.to_vec(),
        ))
    });
    let corpus = c.corpus();
    let t = Instant::now();
    let comparisons = traced_pairs(rec, &c, checks, &|_, _, _| {});

    // Consecutive passes, one job per (vantage, protocol), page by page
    // with the ticket store carried forward.
    let mut work = Vec::new();
    for (vi, &v) in c.vantages().iter().enumerate() {
        for (variant, mode, _) in SIDES {
            let cfg = c.config().visit.clone().with_vantage(v).with_mode(mode);
            work.push(((vi as u32, 0u32, variant), move |ctx: Ctx| {
                let mut tickets = TicketStore::new();
                let mut plts = Vec::with_capacity(corpus.pages.len());
                for page in &corpus.pages {
                    let o = traced_visit(
                        rec,
                        ctx,
                        "browser.visit.consecutive",
                        page,
                        &corpus.domains,
                        &cfg,
                        tickets,
                    )?;
                    tickets = o.tickets;
                    plts.push(o.har.plt_ms);
                }
                Some(plts)
            }));
        }
    }
    let passes: Vec<Vec<f64>> = phase(rec, work)
        .into_iter()
        .map(|(_, p)| p.unwrap_or_default())
        .collect();
    let result = rec.span("analysis.figures", 0, 0, |_| {
        CampaignResult::new(comparisons, passes)
    });
    let secs = t.elapsed().as_secs_f64();
    let expected = (4 * pages * Vantage::ALL.len()) as u64;
    checks.attempt(expected);
    checks.fail(
        expected.saturating_sub(result.visits()),
        "campaign visits missing",
    );
    let want = result.digest();
    checks.pinned(Workload::Campaign, inp.scale, inp.seed, "output", want);

    // The results journal and its resume.
    let n_cmp = result.comparisons.len();
    let records: Vec<String> = result
        .comparisons
        .iter()
        .map(|cmp| rec.span("persist.json_encode", 0, 0, |_| json(cmp)))
        .chain(result.pass_plts.iter().map(json))
        .collect();
    let loaded = results_roundtrip(rec, &inp.scratch.join("campaign-results"), &records);
    let comparisons: Vec<PageComparison> = loaded
        .iter()
        .take(n_cmp)
        .filter_map(|r| {
            rec.span("persist.json_decode", 0, 0, |_| {
                serde_json::from_str(r).ok()
            })
        })
        .collect();
    let passes: Vec<Vec<f64>> = loaded
        .iter()
        .skip(n_cmp)
        .filter_map(|r| serde_json::from_str(r).ok())
        .collect();
    let resumed = rec.span("analysis.figures", 0, 0, |_| {
        CampaignResult::new(comparisons, passes)
    });
    checks.equal("campaign resumed digest", resumed.digest(), want);
    result.visits() as f64 / secs
}

/// Journals `records` through a sharded journal and loads them back,
/// under spans.
fn results_roundtrip(rec: &Recorder, dir: &Path, records: &[String]) -> Vec<String> {
    let _ = std::fs::remove_dir_all(dir);
    let journal = ShardedJournal::open(dir).expect("results journal opens");
    for (seq, r) in records.iter().enumerate() {
        rec.span("persist.shard_append", 0, 0, |_| {
            journal.append(seq as u64, r.as_bytes())
        })
        .expect("results journal append");
    }
    journal.finish().expect("results journal finishes");
    rec.add("persist.shard_bytes", dir_bytes(dir));
    rec.add("persist.shard_records", records.len() as u64);
    rec.span("persist.shard_load", 0, 0, |_| ShardedJournal::load(dir))
        .expect("results journal loads")
        .into_values()
        .map(|b| String::from_utf8(b).expect("records are UTF-8"))
        .collect()
}

// ---------------------------------------------------------------------------
// swarm

const ARMS: [(&str, ProtocolMode, bool); 3] = [
    ("h2", ProtocolMode::H2Only, false),
    ("h3", ProtocolMode::H3Enabled, false),
    ("h3+fallback", ProtocolMode::H3Enabled, true),
];

/// One page's swarm, reduced as the sweep reduces it.
struct Sample {
    plts: Vec<f64>,
    fallbacks: u64,
    retries: u64,
    edge: EdgeStats,
}

fn swarm(rec: &Recorder, inp: &Inputs, checks: &mut Checks) -> f64 {
    let pages = inp.scale.sizes().swarm_pages;
    let c = rec.span("web.generate", 0, 0, |_| {
        MeasurementCampaign::new(campaign_config(
            pages,
            corpus_seed(inp.seed, pages, candidates(pages)),
            WORKERS,
            vec![Vantage::Utah],
        ))
    });
    let corpus = c.corpus();
    let scenarios = edge_overload::default_scenarios();
    let t = Instant::now();
    let mut work = Vec::new();
    for (si, sc) in scenarios.iter().enumerate() {
        for (ai, &(_, mode, fallback)) in ARMS.iter().enumerate() {
            for (site, page) in corpus.pages.iter().enumerate() {
                let mut cfg = c
                    .config()
                    .visit
                    .clone()
                    .with_vantage(Vantage::Utah)
                    .with_mode(mode)
                    .with_h3_fallback(fallback);
                if sc.udp_blackhole {
                    cfg = cfg.with_faults(FaultSpec::everywhere(FaultPlan::udp_blackhole_always()));
                }
                let shape = SwarmConfig {
                    clients: sc.clients,
                    arrival_spacing: sc.arrival_spacing,
                    edge: sc.edge.clone(),
                };
                let domains = &corpus.domains;
                work.push(((si as u32, ai as u32, site as u32), move |ctx: Ctx| {
                    let out = rec
                        .span("browser.swarm", ctx.job, ctx.parent, |_| {
                            run_swarm(page, domains, &cfg, &shape)
                        })
                        .ok()?;
                    add_visit_stats(rec, &out.stats);
                    let edge = out.edge_totals();
                    let fallbacks = out.clients.iter().map(|c| c.resilience.h3_fallbacks).sum();
                    let retries = out.clients.iter().map(|c| c.resilience.conn_retries).sum();
                    rec.add("browser.clients", out.clients.len() as u64);
                    rec.add("browser.completed", out.completed() as u64);
                    rec.add("browser.h3_fallbacks", fallbacks);
                    rec.add("browser.conn_retries", retries);
                    rec.add("cdn.admitted", edge.admitted());
                    rec.add("cdn.refused", edge.refused());
                    rec.add("cdn.shed_cpu", edge.shed_cpu);
                    rec.add("cdn.ticket_misses", edge.ticket_misses);
                    Some(Sample {
                        plts: out
                            .clients
                            .iter()
                            .map(|c| c.plt_ms.unwrap_or(f64::NAN))
                            .collect(),
                        fallbacks,
                        retries,
                        edge,
                    })
                }));
            }
        }
    }
    let samples = phase(rec, work);
    let sweep = rec.span("analysis.figures", 0, 0, |_| {
        reduce_sweep(&scenarios, samples)
    });
    let secs = t.elapsed().as_secs_f64();
    let visits = workloads::swarm_visits(&sweep);
    let expected = workloads::swarm_expected_visits(&scenarios, pages);
    checks.attempt(expected);
    checks.fail(
        expected.saturating_sub(visits),
        "swarm client visits missing",
    );
    let want = json(&sweep);
    checks.pinned(
        Workload::Swarm,
        inp.scale,
        inp.seed,
        "output",
        Fnv::new().bytes(want.as_bytes()).finish(),
    );

    // The sweep's durable path, as the untraced run drives it: one
    // checkpointed sweep, then a resume that loads every job.
    let root = inp.scratch.join("swarm-traced");
    let corpus = c.config().workload.seed;
    let m = manifest(Workload::Swarm, corpus, pages as u64);
    let durable = |run: RunDir| {
        let ctx = DurableContext::new(corpus).with_checkpoint(run);
        MeasurementCampaign::new(c.config().clone().with_durable(Some(ctx)))
    };
    let run = fresh_run_dir(&root, &m).expect("run directory");
    let fresh = rec.span("swarm.journal", 0, 0, |_| {
        edge_overload::run(&durable(run), Vantage::Utah, &scenarios)
    });
    checks.equal("swarm journaled sweep", json(&fresh), want.clone());
    rec.add("persist.job_bytes", dir_bytes(&root.join("jobs")));
    rec.add(
        "persist.jobs",
        (scenarios.len() * ARMS.len() * pages) as u64,
    );
    let run = RunDir::at(root.clone());
    let kept = run.prepare(&m, true).expect("run directory");
    checks.equal("swarm journal kept for resume", kept, true);
    let resumed = rec.span("swarm.resume", 0, 0, |_| {
        edge_overload::run(&durable(run), Vantage::Utah, &scenarios)
    });
    checks.equal("swarm resumed sweep", json(&resumed), want);
    visits as f64 / secs
}

/// The sweep's per-cell reduction: samples grouped by (scenario, arm)
/// in key order.
fn reduce_sweep(
    scenarios: &[edge_overload::OverloadScenario],
    samples: Vec<((u32, u32, u32), Option<Sample>)>,
) -> OverloadSweep {
    let mut by_cell: BTreeMap<(u32, u32), Vec<Sample>> = BTreeMap::new();
    for ((si, ai, _), s) in samples {
        if let Some(s) = s {
            by_cell.entry((si, ai)).or_default().push(s);
        }
    }
    let rows = by_cell
        .into_iter()
        .map(|((si, ai), samples)| {
            let sc = &scenarios[si as usize];
            let plts: Vec<f64> = samples.iter().flat_map(|s| s.plts.clone()).collect();
            let mut edge = EdgeStats::default();
            for s in &samples {
                edge.absorb(&s.edge);
            }
            let (median_plt_ms, stranded_clients) = finite_median(&plts);
            OverloadCell {
                scenario: sc.name.clone(),
                arm: ARMS[ai as usize].0.to_owned(),
                pages: samples.len(),
                clients_per_page: sc.clients,
                stranded_clients,
                mean_plt_ms: finite_mean(&plts).0,
                median_plt_ms,
                worst_plt_ms: finite_quantile(&plts, 1.0).0,
                edge,
                h3_fallbacks: samples.iter().map(|s| s.fallbacks).sum(),
                conn_retries: samples.iter().map(|s| s.retries).sum(),
                plts_ms: plts,
            }
        })
        .collect();
    OverloadSweep { rows }
}

// ---------------------------------------------------------------------------
// journaled

/// Journal section of the traced journaled run.
const SECTION: &str = "pairs";

fn journaled(rec: &Recorder, inp: &Inputs, checks: &mut Checks) -> f64 {
    let pages = inp.scale.sizes().journaled_pages;
    let (c, corpus) = rec.span("web.generate", 0, 0, |_| {
        let corpus = corpus_seed(inp.seed, pages, candidates(pages));
        let config = campaign_config(pages, corpus, WORKERS, vec![Vantage::Utah]);
        (MeasurementCampaign::new(config), corpus)
    });
    let root = inp.scratch.join("journaled-traced");
    let m = manifest(Workload::Journaled, corpus, pages as u64);
    let run = fresh_run_dir(&root, &m).expect("run directory");
    let t = Instant::now();
    let run_ref = &run;
    let comparisons = traced_pairs(rec, &c, checks, &|ctx, seq, har| {
        let payload = rec.span("persist.json_encode", ctx.job, ctx.parent, |_| json(har));
        let stored = rec.span("persist.store_job", ctx.job, ctx.parent, |_| {
            run_ref.store_job(SECTION, seq as usize, payload.as_bytes())
        });
        if stored.is_ok() {
            rec.add("persist.jobs", 1);
            rec.add("persist.job_bytes", payload.len() as u64);
        }
    });
    let secs = t.elapsed().as_secs_f64();
    let jobs = 2 * pages as u64;
    checks.attempt(jobs);
    checks.fail(
        jobs.saturating_sub(rec.count("persist.jobs").unwrap_or(0)),
        "journal writes failed",
    );
    let fresh = json(&comparisons);
    let digest = workloads::journaled_digest(&fresh, &root);
    checks.pinned(Workload::Journaled, inp.scale, inp.seed, "output", digest);

    // Resume: load and decode every job, in journal order, then pair.
    let sides: Vec<Side> = (0..jobs)
        .map(|seq| {
            let har = rec
                .span("persist.load_job", 0, 0, |_| {
                    run.load_job(SECTION, seq as usize)
                })
                .and_then(|bytes| String::from_utf8(bytes).ok())
                .and_then(|text| {
                    rec.span("persist.json_decode", 0, 0, |_| {
                        serde_json::from_str(&text).ok()
                    })
                });
            let key = (0, (seq / 2) as u32, (seq % 2) as u32);
            (key, har)
        })
        .collect();
    checks.attempt(jobs);
    let resumed = pair_up(rec, &c, &sides, checks);
    checks.equal("journaled resumed output", json(&resumed), fresh);
    (2 * comparisons.len()) as f64 / secs
}

// ---------------------------------------------------------------------------
// population

fn population(rec: &Recorder, inp: &Inputs, checks: &mut Checks) -> f64 {
    let n = inp.scale.sizes().population_records;
    let spec = rec.span("web.generate", 0, 0, |_| {
        let spec = population_spec(n, inp.seed);
        spec.validate().expect("population spec validates");
        spec
    });
    let root = inp.scratch.join("population-traced");
    let run =
        fresh_run_dir(&root, &manifest(Workload::Population, inp.seed, n)).expect("run directory");
    let journal = ShardedJournal::open(&run.shards_dir()).expect("shard journal opens");
    let mut welford = Welford::new();
    let mut sketch = QuantileSketch::new(4, 13, 4);
    let mut append_failures = 0u64;
    let t = Instant::now();
    let stats = rec.span("runner.phase", 0, 0, |phase| {
        let spec = &spec;
        let jobs: Vec<(u64, _)> = (0..n)
            .map(|site| {
                let job = site + 1;
                (site, move || {
                    rec.span("web.page_record", job, phase, |_| page_record(spec, site))
                })
            })
            .collect();
        run_keyed_streaming(
            &runner(WORKERS),
            jobs,
            population::DEFAULT_WINDOW,
            |site, r| {
                let bytes = r.encode();
                let appended = rec.span("persist.shard_append", site + 1, 0, |_| {
                    journal.append(site, &bytes)
                });
                append_failures += u64::from(appended.is_err());
                rec.span("analysis.rolling", site + 1, 0, |_| {
                    welford.push(f64::from(r.requests));
                    sketch.push(f64::from(r.requests));
                });
            },
        )
    });
    journal.finish().expect("shard journal finishes");
    let secs = t.elapsed().as_secs_f64();
    checks.attempt(n);
    checks.fail(append_failures, "journal appends failed");
    checks.fail(
        n.saturating_sub(welford.count()),
        "records missing from the rolling fold",
    );
    rec.add("runner.peak_buffered", stats.peak_buffered as u64);
    rec.add("persist.shard_bytes", dir_bytes(&run.shards_dir()));
    rec.add("persist.shard_records", n);

    // Resume: the shard load on its own, then the library's resume of
    // the journal written above, which must reproduce the pinned output.
    let loaded = rec
        .span("persist.shard_load", 0, 0, |_| {
            ShardedJournal::load(&run.shards_dir())
        })
        .map_or(0, |m| m.len() as u64);
    checks.attempt(n);
    checks.fail(n.saturating_sub(loaded), "records missing from the journal");
    let (summary, resume_stats) = rec.span("population.resume", 0, 0, |_| {
        population::run(
            &spec,
            &runner(WORKERS),
            population::DEFAULT_WINDOW,
            Some(&run),
        )
    });
    checks.fail(resume_stats.total as u64, "records regenerated on resume");
    let digest = Fnv::new()
        .bytes(json(&summary).as_bytes())
        .u64(dir_bytes(&root))
        .finish();
    checks.pinned(Workload::Population, inp.scale, inp.seed, "output", digest);
    n as f64 / secs
}

// ---------------------------------------------------------------------------
// metrics and report

/// Where a per-layer value came from.
#[derive(Debug, Clone)]
enum Source {
    /// The workload's own spans (sample count).
    Spans(usize),
    /// The workload's own exact count (or a ratio of counts).
    Count,
    /// The probe's spans (sample count).
    Probe(usize),
    /// An isolated layer bench.
    Bench,
}

/// Builds every per-layer metric.
fn layer_metrics(
    rec: &Recorder,
    probe: &[Recorder],
    isolated: Vec<Metric>,
) -> (Vec<Metric>, Vec<Source>) {
    let mut metrics = Vec::new();
    let mut sources = Vec::new();
    // A timing from the workload's spans, else from the first probe
    // pipeline that has them. `f` maps span durations (ns) to the value.
    let mut timing = |name: &str, unit: &'static str, spans: &[&str], f: &dyn Fn(&[u64]) -> f64| {
        let pick = |r: &Recorder| {
            let d: Vec<u64> = spans.iter().flat_map(|s| r.durations(s)).collect();
            (!d.is_empty()).then_some(d)
        };
        let (value, source) = match pick(rec) {
            Some(d) => (f(&d), Source::Spans(d.len())),
            None => match probe.iter().find_map(pick) {
                Some(d) => (f(&d), Source::Probe(d.len())),
                None => (f64::NAN, Source::Spans(0)),
            },
        };
        metrics.push(Metric::new(name, value, unit));
        sources.push(source);
    };
    let p50 = |d: &[u64]| quantile(d, 0.5).unwrap_or(0) as f64 / 1e6;
    let p99 = |d: &[u64]| quantile(d, 0.99).unwrap_or(0) as f64 / 1e6;
    let mean_div = |k: f64| move |d: &[u64]| mean(d).unwrap_or(f64::NAN) / k;
    let median_div =
        |k: f64| move |d: &[u64]| median(&d.iter().map(|&x| x as f64).collect::<Vec<_>>()) / k;

    for (pass, span) in [
        ("h2", "browser.visit.h2"),
        ("h3", "browser.visit.h3"),
        ("consecutive", "browser.visit.consecutive"),
    ] {
        timing(&format!("browser.visit_ms.{pass}.p50"), "ms", &[span], &p50);
        timing(&format!("browser.visit_ms.{pass}.p99"), "ms", &[span], &p99);
    }
    timing("browser.swarm_ms.p50", "ms", &["browser.swarm"], &p50);
    timing("browser.swarm_ms.p99", "ms", &["browser.swarm"], &p99);
    timing(
        "har.reduce_us_per_pair",
        "us",
        &["har.reduce"],
        &mean_div(1e3),
    );
    timing(
        "analysis.figures_ms",
        "ms",
        &["analysis.figures"],
        &median_div(1e6),
    );
    timing(
        "analysis.rolling_ns_per_record",
        "ns",
        &["analysis.rolling"],
        &mean_div(1.0),
    );
    timing("web.generate_ms", "ms", &["web.generate"], &median_div(1e6));
    timing(
        "web.page_record_us",
        "us",
        &["web.page_record"],
        &mean_div(1e3),
    );
    timing(
        "persist.json_encode_ms",
        "ms",
        &["persist.json_encode"],
        &mean_div(1e6),
    );
    timing(
        "persist.json_decode_ms",
        "ms",
        &["persist.json_decode"],
        &mean_div(1e6),
    );
    timing(
        "persist.store_job_ms",
        "ms",
        &["persist.store_job"],
        &mean_div(1e6),
    );
    timing(
        "persist.load_job_ms",
        "ms",
        &["persist.load_job"],
        &mean_div(1e6),
    );
    timing(
        "persist.shard_append_us",
        "us",
        &["persist.shard_append"],
        &mean_div(1e3),
    );
    timing(
        "persist.shard_load_s",
        "s",
        &["persist.shard_load"],
        &median_div(1e9),
    );

    // Host time per simulated event: visit (or swarm) span time over the
    // events those visits dispatched.
    let visit_spans = [
        "browser.visit.h2",
        "browser.visit.h3",
        "browser.visit.consecutive",
        "browser.swarm",
    ];
    let per_event = |r: &Recorder| {
        let events = r.count("sim_core.events").filter(|&e| e > 0)?;
        let ns: u64 = visit_spans.iter().flat_map(|s| r.durations(s)).sum();
        Some(ns as f64 / events as f64)
    };
    let (v, s) = match per_event(rec) {
        Some(v) => (
            v,
            Source::Spans(rec.count("browser.clients").unwrap_or(0) as usize),
        ),
        None => probe
            .iter()
            .find_map(|r| {
                per_event(r).map(|v| {
                    (
                        v,
                        Source::Probe(r.count("browser.clients").unwrap_or(0) as usize),
                    )
                })
            })
            .unwrap_or((f64::NAN, Source::Spans(0))),
    };
    metrics.push(Metric::new("sim_core.host_ns_per_event", v, "ns"));
    sources.push(s);

    // Counts: the workload's own, 0 when it does not touch the layer.
    let count = |name: &str| rec.count(name).unwrap_or(0);
    let ratio = |num: &str, den: &str| {
        let d = count(den);
        if d == 0 {
            0.0
        } else {
            count(num) as f64 / d as f64
        }
    };
    let counted = [
        ("sim_core.events", count("sim_core.events") as f64, "count"),
        (
            "netsim.packets_delivered",
            count("netsim.packets_delivered") as f64,
            "count",
        ),
        (
            "netsim.packets_lost",
            count("netsim.packets_lost") as f64,
            "count",
        ),
        (
            "netsim.queue_drops",
            count("netsim.queue_drops") as f64,
            "count",
        ),
        (
            "browser.har_entries",
            count("browser.har_entries") as f64,
            "count",
        ),
        (
            "browser.h3_fallbacks",
            count("browser.h3_fallbacks") as f64,
            "count",
        ),
        (
            "browser.conn_retries",
            count("browser.conn_retries") as f64,
            "count",
        ),
        (
            "browser.completed_share",
            100.0 * ratio("browser.completed", "browser.clients"),
            "%",
        ),
        ("cdn.admitted", count("cdn.admitted") as f64, "count"),
        ("cdn.refused", count("cdn.refused") as f64, "count"),
        ("cdn.shed_cpu", count("cdn.shed_cpu") as f64, "count"),
        (
            "cdn.ticket_misses",
            count("cdn.ticket_misses") as f64,
            "count",
        ),
        (
            "runner.peak_buffered",
            count("runner.peak_buffered") as f64,
            "count",
        ),
        (
            "persist.job_bytes",
            ratio("persist.job_bytes", "persist.jobs"),
            "B",
        ),
        (
            "persist.shard_bytes_per_record",
            ratio("persist.shard_bytes", "persist.shard_records"),
            "B",
        ),
    ];
    for (name, value, unit) in counted {
        metrics.push(Metric::new(name, value, unit));
        sources.push(Source::Count);
    }
    metrics.push(Metric::new(
        "runner.busy_share",
        100.0 * rec.busy_share("runner.phase", WORKERS).unwrap_or(0.0),
        "%",
    ));
    sources.push(Source::Count);

    for m in isolated {
        metrics.push(m);
        sources.push(Source::Bench);
    }
    (metrics, sources)
}

/// Prints the per-layer report to standard error and writes the spans
/// and a summary next to the build.
fn report(
    args: &Args,
    rec: &Recorder,
    metrics: &[Metric],
    sources: &[Source],
    untraced: f64,
    traced: f64,
) {
    let summary = rec.summary();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<28} {:>9} {:>12} {:>12} {:>12}",
        "span", "samples", "total ms", "self ms", "self us/op"
    );
    for (name, s) in &summary {
        let _ = writeln!(
            text,
            "{name:<28} {:>9} {:>12.1} {:>12.1} {:>12.2}",
            s.samples,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.self_ns as f64 / 1e3 / s.samples.max(1) as f64
        );
    }
    let _ = writeln!(
        text,
        "{:<36} {:>16} {:<8} source",
        "metric", "value", "unit"
    );
    for (m, src) in metrics.iter().zip(sources) {
        let src = match src {
            Source::Spans(n) => format!("spans, {n} samples"),
            Source::Probe(n) => format!("probe spans, {n} samples"),
            Source::Count => "exact count".to_owned(),
            Source::Bench => "isolated bench".to_owned(),
        };
        let _ = writeln!(text, "{:<36} {:>16.4} {:<8} {src}", m.name, m.value, m.unit);
    }
    eprint!("{text}");

    let Some(dir) = &args.trace_out else {
        return;
    };
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let spans_path: PathBuf = dir.join(format!("{stem}.spans.jsonl"));
    let result = std::fs::create_dir_all(dir).and_then(|()| rec.write_spans(&spans_path));
    if let Err(e) = result {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
        return;
    }
    let spans_json: Vec<String> = summary
        .iter()
        .map(|(name, s)| {
            format!(
                "\"{name}\": {{\"samples\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                s.samples, s.total_ns, s.self_ns
            )
        })
        .collect();
    let metrics_json: Vec<String> = metrics
        .iter()
        .zip(sources)
        .map(|(m, src)| {
            let samples = match src {
                Source::Spans(n) | Source::Probe(n) => n.to_string(),
                Source::Count | Source::Bench => "null".to_owned(),
            };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\", \"samples\": {samples}, \"probe\": {}}}",
                m.name,
                m.unit,
                matches!(src, Source::Probe(_))
            )
        })
        .collect();
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"untraced_visits_per_sec\": {untraced}, \
         \"traced_visits_per_sec\": {traced}, \"spans\": {{{}}}, \"metrics\": {{{}}}}}\n",
        args.workload.name(),
        args.seed,
        spans_json.join(", "),
        metrics_json.join(", ")
    );
    let path = dir.join(format!("{stem}.summary.json"));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
