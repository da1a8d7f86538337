//! Continuous path dynamics: trace-driven link variation.
//!
//! [`FaultPlan`](crate::FaultPlan) models *discrete* events — a link is
//! either up or down, collapsed or not. Real access paths degrade
//! *continuously*: a cellular handover ramps delay up and rate down over
//! hundreds of milliseconds, a Wi-Fi roam is a brief lossy fade, and a
//! shared bottleneck oscillates. This module drives per-path parameters
//! (extra delay, bottleneck rate, extra loss) from a piecewise-linear
//! [`PathTrace`], sampled deterministically per packet — same seed, same
//! trace, same byte-identical run.
//!
//! Traces compose with the static [`PathSpec`](crate::PathSpec): the
//! trace's delay is *added* to the path's propagation delay, its loss is
//! an *extra* IID drop probability ahead of the path's own loss model,
//! and its rate feeds a dedicated `Serializer` running a configurable
//! [`QueueDiscipline`] — the varying bottleneck where bufferbloat lives.

use h3cdn_sim_core::units::{ByteCount, DataRate};
use h3cdn_sim_core::{SimDuration, SimRng, SimTime};

use crate::link::{QueueDiscipline, QueueStats, Serializer};

/// Traces never interpolate below this rate: `DataRate` cannot represent
/// zero (a zero-rate link is a blackout — model that with a `FaultPlan`).
const MIN_TRACE_RATE_BPS: u64 = 8_000;

/// One knot of a piecewise-linear path trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceKey {
    /// Offset from the start of the (looping) trace period.
    pub at: SimDuration,
    /// Extra one-way delay added to the path's propagation delay.
    pub extra_delay: SimDuration,
    /// Bottleneck rate of the dynamic link at this instant.
    pub rate: DataRate,
    /// Extra IID drop probability in `[0, 1]`, applied before the
    /// path's own loss model.
    pub extra_loss: f64,
}

impl TraceKey {
    /// A clean knot: no extra delay or loss, the given rate.
    pub fn clean(at: SimDuration, rate: DataRate) -> Self {
        TraceKey {
            at,
            extra_delay: SimDuration::ZERO,
            rate,
            extra_loss: 0.0,
        }
    }
}

/// Why a set of trace keys does not form a valid [`PathTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceError {
    /// A trace needs at least one key.
    Empty,
    /// The first key must sit at offset zero so the looping
    /// interpolation is total.
    FirstKeyNotZero,
    /// Keys must be strictly increasing in `at`; the key at this index
    /// is not after its predecessor.
    Unsorted { index: usize },
    /// A key's `extra_loss` is outside `[0, 1]` (or not finite).
    LossOutOfRange { index: usize, p: f64 },
    /// The looping period must be positive.
    ZeroPeriod,
    /// A key's offset reaches or exceeds the period, so it would never
    /// be sampled.
    KeyBeyondPeriod { index: usize },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "path trace has no keys"),
            TraceError::FirstKeyNotZero => {
                write!(f, "path trace must start with a key at offset zero")
            }
            TraceError::Unsorted { index } => {
                write!(f, "path trace key {index} is not after its predecessor")
            }
            TraceError::LossOutOfRange { index, p } => {
                write!(
                    f,
                    "path trace key {index} has extra_loss {p} outside [0, 1]"
                )
            }
            TraceError::ZeroPeriod => write!(f, "path trace period must be positive"),
            TraceError::KeyBeyondPeriod { index } => {
                write!(f, "path trace key {index} lies at or beyond the period")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The trace's value at one instant (see [`PathTrace::sample`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Extra one-way delay.
    pub extra_delay: SimDuration,
    /// Bottleneck rate.
    pub rate: DataRate,
    /// Extra IID drop probability.
    pub extra_loss: f64,
}

/// A looping piecewise-linear trace of path parameters.
///
/// Values between keys interpolate linearly; after the last key the
/// trace interpolates toward the first key shifted by one period, then
/// wraps. Sampling is a pure function of the timestamp — no state — so
/// replay determinism is free.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTrace {
    keys: Vec<TraceKey>,
    period: SimDuration,
}

impl PathTrace {
    /// Validates and builds a trace from keys and a looping period.
    pub fn new(keys: Vec<TraceKey>, period: SimDuration) -> Result<Self, TraceError> {
        if keys.is_empty() {
            return Err(TraceError::Empty);
        }
        if period.is_zero() {
            return Err(TraceError::ZeroPeriod);
        }
        let mut prev: Option<SimDuration> = None;
        for (index, key) in keys.iter().enumerate() {
            if index == 0 && !key.at.is_zero() {
                return Err(TraceError::FirstKeyNotZero);
            }
            if let Some(p) = prev {
                if key.at <= p {
                    return Err(TraceError::Unsorted { index });
                }
            }
            if !key.extra_loss.is_finite() || !(0.0..=1.0).contains(&key.extra_loss) {
                return Err(TraceError::LossOutOfRange {
                    index,
                    p: key.extra_loss,
                });
            }
            if key.at >= period {
                return Err(TraceError::KeyBeyondPeriod { index });
            }
            prev = Some(key.at);
        }
        Ok(PathTrace { keys, period })
    }

    /// The looping period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Samples the trace at an absolute simulation time.
    pub fn sample(&self, at: SimTime) -> TraceSample {
        let t = at.as_nanos() % self.period.as_nanos().max(1);
        // Find the segment [prev, next) containing t. Keys are sorted
        // and the first sits at zero, so a predecessor always exists.
        let i = self.keys.partition_point(|k| k.at.as_nanos() <= t);
        let fallback = TraceKey::clean(SimDuration::ZERO, DataRate::from_bps(MIN_TRACE_RATE_BPS));
        let prev = self
            .keys
            .get(i.wrapping_sub(1))
            .copied()
            .unwrap_or(fallback);
        // The segment after the last key wraps to the first key at
        // `period`.
        let (next, next_at) = match self.keys.get(i) {
            Some(k) => (*k, k.at.as_nanos()),
            None => {
                let first = self.keys.first().copied().unwrap_or(fallback);
                (first, self.period.as_nanos())
            }
        };
        let span = next_at.saturating_sub(prev.at.as_nanos());
        let frac = if span == 0 {
            0.0
        } else {
            (t - prev.at.as_nanos()) as f64 / span as f64
        };
        let lerp = |a: f64, b: f64| a + (b - a) * frac;
        let delay_ns = lerp(
            prev.extra_delay.as_nanos() as f64,
            next.extra_delay.as_nanos() as f64,
        );
        let rate_bps = lerp(prev.rate.as_bps() as f64, next.rate.as_bps() as f64);
        let loss = lerp(prev.extra_loss, next.extra_loss).clamp(0.0, 1.0);
        TraceSample {
            extra_delay: SimDuration::from_nanos(delay_ns.max(0.0) as u64),
            rate: DataRate::from_bps((rate_bps as u64).max(MIN_TRACE_RATE_BPS)),
            extra_loss: loss,
        }
    }

    /// The analytic long-run mean of `extra_loss`: the time-weighted
    /// average over one period of the piecewise-linear loss curve
    /// (trapezoid rule per segment, exact for linear pieces).
    pub fn mean_extra_loss(&self) -> f64 {
        let period_ns = self.period.as_nanos().max(1) as f64;
        let mut area = 0.0;
        for pair in self.keys.windows(2) {
            if let [a, b] = pair {
                let span = b.at.as_nanos().saturating_sub(a.at.as_nanos()) as f64;
                area += (a.extra_loss + b.extra_loss) / 2.0 * span;
            }
        }
        // Wrap segment: last key back to the first key at `period`.
        if let (Some(last), Some(first)) = (self.keys.last(), self.keys.first()) {
            let span = self.period.as_nanos().saturating_sub(last.at.as_nanos()) as f64;
            area += (last.extra_loss + first.extra_loss) / 2.0 * span;
        }
        area / period_ns
    }
}

/// Named synthetic trace generators, seeded and deterministic.
///
/// Each profile captures one degradation regime from the measurement
/// literature: periodic cellular handovers (delay spike + rate dip +
/// loss burst), brief Wi-Fi roaming fades, and an oscillating shared
/// bottleneck (the bufferbloat stress case — rate swings while delay
/// and loss stay clean, so all queueing pain comes from the discipline
/// and the congestion controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DynamicsProfile {
    /// LTE-like link with a periodic handover event: delay ramps up
    /// ~80 ms, rate collapses to ~1.5 Mbps, ~3 % loss for ~400 ms.
    CellularHandover,
    /// Fast Wi-Fi with a short roaming fade: a ~250 ms near-outage
    /// (~0.5 Mbps, 15 % loss) with sharp edges.
    WifiRoaming,
    /// Triangle-wave bottleneck oscillating between ~40 and ~4 Mbps
    /// every few seconds; no extra delay or loss.
    OscillatingBottleneck,
}

impl DynamicsProfile {
    /// All profiles, in sweep order.
    pub const ALL: [DynamicsProfile; 3] = [
        DynamicsProfile::CellularHandover,
        DynamicsProfile::WifiRoaming,
        DynamicsProfile::OscillatingBottleneck,
    ];

    /// Stable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            DynamicsProfile::CellularHandover => "handover",
            DynamicsProfile::WifiRoaming => "wifi-roam",
            DynamicsProfile::OscillatingBottleneck => "oscillate",
        }
    }

    /// Generates this profile's trace. The seed jitters event timing
    /// and depth so different runs see different (but reproducible)
    /// trace phases.
    pub fn trace(self, seed: u64) -> PathTrace {
        let mut rng = SimRng::seed_from(seed ^ 0xD11A_7A0E);
        let keys;
        let period;
        match self {
            DynamicsProfile::CellularHandover => {
                // One handover per period: ramp into the degraded cell
                // edge over 300 ms, dwell, ramp back out.
                period = SimDuration::from_millis(rng.range_inclusive(9_000, 12_000));
                let event = SimDuration::from_millis(rng.range_inclusive(3_000, 6_000));
                let dwell = SimDuration::from_millis(rng.range_inclusive(300, 500));
                let ramp = SimDuration::from_millis(300);
                let good = TraceKey::clean(SimDuration::ZERO, DataRate::from_mbps(40));
                let degraded = |at| TraceKey {
                    at,
                    extra_delay: SimDuration::from_millis(80),
                    rate: DataRate::from_kbps(1_500),
                    extra_loss: 0.03,
                };
                keys = vec![
                    good,
                    TraceKey { at: event, ..good },
                    degraded(event + ramp),
                    degraded(event + ramp + dwell),
                    TraceKey {
                        at: event + ramp + dwell + ramp,
                        ..good
                    },
                ];
            }
            DynamicsProfile::WifiRoaming => {
                // A short, sharp roaming fade on an otherwise fast link.
                period = SimDuration::from_millis(rng.range_inclusive(15_000, 25_000));
                let event = SimDuration::from_millis(rng.range_inclusive(5_000, 10_000));
                let edge = SimDuration::from_millis(50);
                let fade_len = SimDuration::from_millis(rng.range_inclusive(200, 300));
                let good = TraceKey::clean(SimDuration::ZERO, DataRate::from_mbps(80));
                let faded = |at| TraceKey {
                    at,
                    extra_delay: SimDuration::from_millis(20),
                    rate: DataRate::from_kbps(500),
                    extra_loss: 0.15,
                };
                keys = vec![
                    good,
                    TraceKey { at: event, ..good },
                    faded(event + edge),
                    faded(event + edge + fade_len),
                    TraceKey {
                        at: event + edge + fade_len + edge,
                        ..good
                    },
                ];
            }
            DynamicsProfile::OscillatingBottleneck => {
                // Clean triangle wave: peak at the period boundaries,
                // trough mid-period. All degradation is queueing.
                period = SimDuration::from_millis(rng.range_inclusive(2_500, 4_000));
                let trough = period.mul_f64(0.5);
                keys = vec![
                    TraceKey::clean(SimDuration::ZERO, DataRate::from_mbps(40)),
                    TraceKey::clean(trough, DataRate::from_mbps(4)),
                ];
            }
        }
        // Generators construct sorted, in-range keys by design; fall
        // back to a flat trace if that invariant is ever violated
        // rather than panicking on the packet path.
        PathTrace::new(keys, period).unwrap_or_else(|_| PathTrace {
            keys: vec![TraceKey::clean(SimDuration::ZERO, DataRate::from_mbps(40))],
            period: SimDuration::from_secs(10),
        })
    }
}

impl std::fmt::Display for DynamicsProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What continuous dynamics did with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DynamicsOutcome {
    /// Delivered: serialisation through the dynamic bottleneck plus the
    /// trace's extra delay completes at this time.
    Deliver(SimTime),
    /// Dropped by the trace's extra loss process.
    DropLoss,
    /// Dropped at the dynamic bottleneck's queue (tail or AQM).
    DropQueue,
}

/// Per-path runtime state for an installed trace: the varying-rate
/// bottleneck serialiser plus a forked RNG for the extra loss draws.
#[derive(Debug, Clone)]
pub(crate) struct DynamicsState {
    trace: PathTrace,
    queue: Serializer,
    loss_rng: SimRng,
}

impl DynamicsState {
    pub(crate) fn new(trace: PathTrace, discipline: QueueDiscipline, loss_rng: SimRng) -> Self {
        let initial = trace.sample(SimTime::ZERO);
        DynamicsState {
            trace,
            queue: Serializer::with_discipline(initial.rate, discipline),
            loss_rng,
        }
    }

    /// Applies the trace to one packet offered at `at`.
    pub(crate) fn apply(&mut self, at: SimTime, size: ByteCount) -> DynamicsOutcome {
        let sample = self.trace.sample(at);
        // The loss draw happens unconditionally so the random stream
        // consumed per packet is independent of the trace phase.
        let lost = self.loss_rng.bernoulli(sample.extra_loss.clamp(0.0, 1.0));
        if lost {
            return DynamicsOutcome::DropLoss;
        }
        self.queue.set_rate(at, sample.rate);
        match self.queue.enqueue(at, size) {
            Some(done) => DynamicsOutcome::Deliver(done + sample.extra_delay),
            None => DynamicsOutcome::DropQueue,
        }
    }

    /// Counters of the dynamic bottleneck queue.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at_ms: u64, delay_ms: u64, rate: DataRate, loss: f64) -> TraceKey {
        TraceKey {
            at: SimDuration::from_millis(at_ms),
            extra_delay: SimDuration::from_millis(delay_ms),
            rate,
            extra_loss: loss,
        }
    }

    fn two_key_trace() -> PathTrace {
        PathTrace::new(
            vec![
                key(0, 0, DataRate::from_mbps(10), 0.0),
                key(1000, 100, DataRate::from_mbps(2), 0.2),
            ],
            SimDuration::from_millis(2000),
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_malformed_traces() {
        assert_eq!(
            PathTrace::new(vec![], SimDuration::from_secs(1)),
            Err(TraceError::Empty)
        );
        assert_eq!(
            PathTrace::new(
                vec![key(5, 0, DataRate::from_mbps(1), 0.0)],
                SimDuration::from_secs(1)
            ),
            Err(TraceError::FirstKeyNotZero)
        );
        assert_eq!(
            PathTrace::new(
                vec![
                    key(0, 0, DataRate::from_mbps(1), 0.0),
                    key(10, 0, DataRate::from_mbps(1), 0.0),
                    key(10, 0, DataRate::from_mbps(1), 0.0),
                ],
                SimDuration::from_secs(1)
            ),
            Err(TraceError::Unsorted { index: 2 })
        );
        assert_eq!(
            PathTrace::new(
                vec![key(0, 0, DataRate::from_mbps(1), 1.5)],
                SimDuration::from_secs(1)
            ),
            Err(TraceError::LossOutOfRange { index: 0, p: 1.5 })
        );
        assert_eq!(
            PathTrace::new(
                vec![key(0, 0, DataRate::from_mbps(1), 0.0)],
                SimDuration::ZERO
            ),
            Err(TraceError::ZeroPeriod)
        );
        assert_eq!(
            PathTrace::new(
                vec![
                    key(0, 0, DataRate::from_mbps(1), 0.0),
                    key(1000, 0, DataRate::from_mbps(1), 0.0),
                ],
                SimDuration::from_millis(1000)
            ),
            Err(TraceError::KeyBeyondPeriod { index: 1 })
        );
        assert!(TraceError::Empty.to_string().contains("no keys"));
    }

    #[test]
    fn sample_interpolates_exactly_at_keys_and_midpoints() {
        let trace = two_key_trace();
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let s0 = trace.sample(at(0));
        assert_eq!(s0.extra_delay, SimDuration::ZERO);
        assert_eq!(s0.rate, DataRate::from_mbps(10));
        assert_eq!(s0.extra_loss, 0.0);

        let s1 = trace.sample(at(1000));
        assert_eq!(s1.extra_delay, SimDuration::from_millis(100));
        assert_eq!(s1.rate, DataRate::from_mbps(2));
        assert!((s1.extra_loss - 0.2).abs() < 1e-12);

        // Midpoint of the first segment: linear halfway values.
        let mid = trace.sample(at(500));
        assert_eq!(mid.extra_delay, SimDuration::from_millis(50));
        assert_eq!(mid.rate, DataRate::from_bps(6_000_000));
        assert!((mid.extra_loss - 0.1).abs() < 1e-12);

        // Midpoint of the wrap segment (1000 → 2000 ms interpolates
        // back toward the first key).
        let wrap = trace.sample(at(1500));
        assert_eq!(wrap.extra_delay, SimDuration::from_millis(50));
        assert_eq!(wrap.rate, DataRate::from_bps(6_000_000));
        assert!((wrap.extra_loss - 0.1).abs() < 1e-12);

        // Looping: one full period later, same values.
        assert_eq!(trace.sample(at(500)), trace.sample(at(2500)));
    }

    #[test]
    fn sample_floors_rate_at_the_minimum() {
        let trace = PathTrace::new(
            vec![
                key(0, 0, DataRate::from_bps(8_000), 0.0),
                key(1000, 0, DataRate::from_bps(8_000), 0.0),
            ],
            SimDuration::from_millis(2000),
        )
        .unwrap();
        let s = trace.sample(SimTime::ZERO + SimDuration::from_millis(300));
        assert!(s.rate.as_bps() >= 8_000);
    }

    #[test]
    fn long_run_mean_loss_matches_analytic_value() {
        // Mirror of the Gilbert–Elliott long-run test in loss.rs: the
        // time-averaged sampled loss over many periods must converge to
        // the analytic trapezoid mean of the piecewise-linear curve.
        let trace = two_key_trace();
        let analytic = trace.mean_extra_loss();
        // Segments: 0→1000 ms mean 0.1, 1000→2000 ms (wrap) mean 0.1.
        assert!((analytic - 0.1).abs() < 1e-12);

        let mut sum = 0.0;
        let mut n = 0u64;
        // Sample every 1 ms across 50 periods (an integer number of
        // periods keeps phase bias out of the estimate).
        for ms in 0..100_000u64 {
            sum += trace
                .sample(SimTime::ZERO + SimDuration::from_millis(ms))
                .extra_loss;
            n += 1;
        }
        let sampled = sum / n as f64;
        assert!(
            (sampled - analytic).abs() < 1e-3,
            "sampled {sampled} vs analytic {analytic}"
        );

        // And the realised bernoulli drop rate through DynamicsState
        // converges to the same mean.
        let mut state =
            DynamicsState::new(trace, QueueDiscipline::DropTailDeep, SimRng::seed_from(42));
        let mut drops = 0u64;
        let total = 100_000u64;
        for ms in 0..total {
            // Tiny packets so the queue never interferes.
            match state.apply(
                SimTime::ZERO + SimDuration::from_millis(ms),
                ByteCount::new(1),
            ) {
                DynamicsOutcome::DropLoss => drops += 1,
                DynamicsOutcome::DropQueue => {}
                DynamicsOutcome::Deliver(_) => {}
            }
        }
        let realised = drops as f64 / total as f64;
        assert!(
            (realised - analytic).abs() < 0.01,
            "realised {realised} vs analytic {analytic}"
        );
    }

    #[test]
    fn generators_are_seeded_and_deterministic() {
        for profile in DynamicsProfile::ALL {
            let a = profile.trace(7);
            let b = profile.trace(7);
            assert_eq!(a, b, "{profile} must be deterministic per seed");
            let c = profile.trace(8);
            assert_ne!(a, c, "{profile} must vary with the seed");
            assert!(!a.period().is_zero());
            // Every generated trace must sample cleanly across a period.
            for ms in 0..50 {
                let at = SimTime::ZERO + a.period().mul_f64(ms as f64 / 50.0);
                let s = a.sample(at);
                assert!(s.rate.as_bps() >= MIN_TRACE_RATE_BPS);
                assert!((0.0..=1.0).contains(&s.extra_loss));
            }
        }
        assert_eq!(DynamicsProfile::CellularHandover.label(), "handover");
        assert_eq!(DynamicsProfile::WifiRoaming.to_string(), "wifi-roam");
        assert_eq!(DynamicsProfile::OscillatingBottleneck.label(), "oscillate");
    }

    #[test]
    fn dynamics_state_delays_and_delivers() {
        // Flat 8 Mbps trace with 10 ms extra delay: a 1000 B packet
        // lands at serialisation (1 ms) + 10 ms.
        let trace = PathTrace::new(
            vec![
                key(0, 10, DataRate::from_mbps(8), 0.0),
                key(1000, 10, DataRate::from_mbps(8), 0.0),
            ],
            SimDuration::from_millis(2000),
        )
        .unwrap();
        let mut state =
            DynamicsState::new(trace, QueueDiscipline::DropTailDeep, SimRng::seed_from(1));
        let out = state.apply(SimTime::ZERO, ByteCount::new(1000));
        assert_eq!(
            out,
            DynamicsOutcome::Deliver(SimTime::ZERO + SimDuration::from_millis(11))
        );
        assert_eq!(state.queue_stats().transmitted, 1);
    }
}
