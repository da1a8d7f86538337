//! Property-based tests of the simulation primitives against reference
//! models.

use h3cdn_sim_core::{EventQueue, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// A time relative to `now`, the instant last popped: `now` itself,
/// earlier instants, offsets from 1 ns to minutes, and `SimTime::MAX`.
fn near(now: u64, code: u8) -> SimTime {
    SimTime::from_nanos(match code % 10 {
        0 => now,
        1 => now.saturating_sub(1),
        2 => now.saturating_sub(70_000_000),
        3 => now.saturating_add(1),
        4 => now.saturating_add(70_000),
        5 => now.saturating_add(20_000_000),
        6 => now.saturating_add(5_000_000_000),
        7 => now.saturating_add(300_000_000_000),
        8 => now.saturating_add(u64::from(code) << 20),
        _ => u64::MAX,
    })
}

proptest! {
    /// The event queue pops in exactly the order of a stable sort by
    /// time — checked against a model, first for a batch of schedules,
    /// then for random interleavings of `schedule` (op 0), `pop` (op 1)
    /// and `pop_at_or_before` (op 2), comparing pop order, `peek_time`
    /// and `len` after every step.
    #[test]
    fn event_queue_matches_stable_sort_model(
        times in prop::collection::vec(0u64..1_000, 1..200),
        ops in prop::collection::vec((0u8..3, 0u8..255), 0..400),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut model: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        model.sort_by_key(|&(t, i)| (t, i)); // stable by construction
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, i)| (t.as_nanos(), i)).collect();
        prop_assert_eq!(popped, model);

        // The model is kept sorted by time alone; the sort is stable, so
        // ties stay in insertion order and its head is the next event.
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        let mut now = 0u64;
        for (id, &(op, code)) in ops.iter().enumerate() {
            let at = near(now, code);
            if op == 0 {
                q.schedule(at, id);
                model.push((at, id));
                model.sort_by_key(|&(t, _)| t);
            } else {
                let due = model.first().is_some_and(|&(t, _)| op == 1 || t <= at);
                let expected = due.then(|| model.remove(0));
                let got = if op == 1 { q.pop() } else { q.pop_at_or_before(at) };
                prop_assert_eq!(got, expected);
                if let Some((t, _)) = got {
                    now = t.as_nanos();
                }
            }
            prop_assert_eq!(q.peek_time(), model.first().map(|&(t, _)| t));
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        let rest: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(rest, model);
    }

    /// Uniform draws stay in range and fill the space.
    #[test]
    fn next_below_uniformity(seed in 0u64..10_000, bound in 1u64..100) {
        let mut rng = SimRng::seed_from(seed);
        let mut seen = vec![false; bound as usize];
        for _ in 0..(bound * 60) {
            let x = rng.next_below(bound);
            prop_assert!(x < bound);
            seen[x as usize] = true;
        }
        let coverage = seen.iter().filter(|&&b| b).count() as f64 / bound as f64;
        prop_assert!(coverage > 0.9, "coverage {coverage}");
    }

    /// Time arithmetic round-trips and orders correctly.
    #[test]
    fn time_arithmetic_consistency(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        let forward = t + d;
        prop_assert_eq!(forward.saturating_duration_since(t), d);
        prop_assert_eq!(forward - d, t);
        prop_assert!(forward >= t);
    }

    /// Forked streams are reproducible and label-distinct.
    #[test]
    fn forks_reproducible_and_distinct(seed in 0u64..10_000, label in 0u64..1_000) {
        let parent = SimRng::seed_from(seed);
        let mut a = parent.fork(label);
        let mut b = parent.fork(label);
        let mut c = parent.fork(label.wrapping_add(1));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        prop_assert_eq!(&xs, &ys);
        prop_assert_ne!(&xs, &zs);
    }
}
