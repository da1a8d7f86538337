//! [`SeqRing`]: an ordered map keyed by a sequence number that grows.
//!
//! TCP's in-flight segments and message markers and QUIC's sent packets
//! are keyed by byte offsets or packet numbers that a sender hands out in
//! ascending order. New keys append at the back, acknowledgements retire
//! keys from the front, and only a retransmission lands in the middle. A
//! deque sorted by key serves the ends in O(1) and the middle by binary
//! search, without the node walk and per-entry allocation of an ordered
//! tree; iteration order is the tree's (ascending key).

use std::collections::VecDeque;

/// `(key, value)` entries in strictly ascending key order.
#[derive(Debug)]
pub(crate) struct SeqRing<V> {
    entries: VecDeque<(u64, V)>,
}

impl<V> Default for SeqRing<V> {
    fn default() -> Self {
        SeqRing {
            entries: VecDeque::new(),
        }
    }
}

impl<V> SeqRing<V> {
    /// Whether the ring holds no entry.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// The entry with the lowest key.
    pub(crate) fn first(&self) -> Option<(u64, &V)> {
        self.entries.front().map(|(k, v)| (*k, v))
    }

    /// Removes and returns the entry with the lowest key.
    pub(crate) fn pop_first(&mut self) -> Option<(u64, V)> {
        self.entries.pop_front()
    }

    /// Removes and returns the entry with the highest key.
    pub(crate) fn pop_last(&mut self) -> Option<(u64, V)> {
        self.entries.pop_back()
    }

    /// Removes and returns the entry with the lowest key if `pred`
    /// holds for it.
    pub(crate) fn pop_first_if(&mut self, pred: impl FnOnce(u64, &V) -> bool) -> Option<(u64, V)> {
        let &(key, ref value) = self.entries.front()?;
        if pred(key, value) {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Index of the first entry whose key is at least `key`.
    fn lower_bound(&self, key: u64) -> usize {
        self.entries.partition_point(|&(k, _)| k < key)
    }

    /// Index of the first entry whose key exceeds `key`.
    fn upper_bound(&self, key: u64) -> usize {
        self.entries.partition_point(|&(k, _)| k <= key)
    }

    /// Inserts `value` at `key`, replacing the value an equal key held.
    /// A key above every key held appends in O(1).
    pub(crate) fn insert(&mut self, key: u64, value: V) {
        if self.entries.back().is_none_or(|&(last, _)| last < key) {
            self.entries.push_back((key, value));
            return;
        }
        let at = self.lower_bound(key);
        match self.entries.get_mut(at) {
            Some(entry) if entry.0 == key => entry.1 = value,
            _ => self.entries.insert(at, (key, value)),
        }
    }

    /// Removes the entry at `key`, returning its value.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        let at = self.entries.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        self.entries.remove(at).map(|(_, v)| v)
    }

    /// Removes every entry whose key is at most `key`.
    pub(crate) fn remove_through(&mut self, key: u64) {
        let end = self.upper_bound(key);
        self.entries.drain(..end);
    }

    /// Entries with `lo <= key <= hi`, ascending.
    pub(crate) fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &V)> {
        let start = self.lower_bound(lo);
        let end = self.upper_bound(hi).max(start);
        self.entries.range(start..end).map(|(k, v)| (*k, v))
    }

    /// Every entry, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Keeps the entries for which `keep` holds, visiting them in
    /// ascending key order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(*k, v));
    }

    /// Removes every entry whose key lies in one of `ranges`, handing
    /// each to `acked` first, in ascending key order. `ranges` are
    /// inclusive `(lo, hi)` pairs, descending and disjoint, as an ACK
    /// frame carries them. Only the entries between the lowest `lo` and
    /// the highest `hi` are visited; the ranges are walked alongside
    /// them, so the cost is that window plus the range count.
    pub(crate) fn drain_ranges(
        &mut self,
        ranges: &[(u64, u64)],
        mut acked: impl FnMut(u64, &mut V),
    ) {
        debug_assert!(
            ranges
                .windows(2)
                .all(|pair| matches!(pair, &[(lo, _), (_, hi)] if hi < lo)),
            "ACK ranges must be descending and disjoint: {ranges:?}"
        );
        let (Some(&(_, highest)), Some(&(lowest, _))) = (ranges.first(), ranges.last()) else {
            return;
        };
        let start = self.lower_bound(lowest);
        let end = self.upper_bound(highest).max(start);
        let mut ascending = ranges.iter().rev().peekable();
        // Survivors (keys in the gaps between ranges) shift down to
        // `kept`, in order; the acked entries collect in `kept..end`.
        let mut kept = start;
        for read in start..end {
            let Some(&(key, _)) = self.entries.get(read) else {
                break;
            };
            while ascending.next_if(|&&(_, hi)| hi < key).is_some() {}
            if ascending.peek().is_some_and(|&&(lo, _)| lo <= key) {
                if let Some((_, value)) = self.entries.get_mut(read) {
                    acked(key, value);
                }
            } else {
                self.entries.swap(kept, read);
                kept += 1;
            }
        }
        self.entries.drain(kept..end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn_sim_core::SimRng;
    use std::collections::BTreeMap;

    fn contents(ring: &SeqRing<u64>) -> Vec<(u64, u64)> {
        ring.iter().map(|(k, &v)| (k, v)).collect()
    }

    fn model_contents(model: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
        model.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// A key the model holds, or any key up to `next`, half the time each.
    fn held_or_random(rng: &mut SimRng, model: &BTreeMap<u64, u64>, next: u64) -> u64 {
        let held = model
            .keys()
            .nth(rng.next_below(model.len() as u64 + 1) as usize);
        match held {
            Some(&k) if rng.next_below(2) == 0 => k,
            _ => rng.range_inclusive(0, next),
        }
    }

    /// The ring is a `BTreeMap` under the operations TCP's in-flight
    /// segments and send markers put it through: appends of new data,
    /// re-inserts of a retransmission in mid-sequence, removals by key,
    /// front pops up to a cumulative ACK, back pops (tail-loss probes)
    /// and marker range queries.
    #[test]
    fn seq_ring_matches_btreemap_model() {
        for seed in 0..64 {
            let mut rng = SimRng::seed_from(seed);
            let mut ring = SeqRing::default();
            let mut model = BTreeMap::new();
            let mut next = 0u64;
            for step in 0..600u64 {
                match rng.next_below(9) {
                    // New data: a key above every key sent so far.
                    0..=2 => {
                        next += rng.range_inclusive(1, 1460);
                        ring.insert(next, step);
                        model.insert(next, step);
                    }
                    // A retransmission re-inserted anywhere below the
                    // front of new data, or over a live key.
                    3 => {
                        let key = rng.range_inclusive(0, next);
                        ring.insert(key, step);
                        model.insert(key, step);
                    }
                    4 => {
                        let key = held_or_random(&mut rng, &model, next);
                        assert_eq!(ring.remove(key), model.remove(&key), "remove {key}");
                    }
                    // A cumulative ACK: pop the front while it is covered.
                    5 => {
                        let ack = rng.range_inclusive(0, next);
                        while let Some((k, _)) = ring.pop_first_if(|k, _| k <= ack) {
                            assert_eq!(model.pop_first().map(|(mk, _)| mk), Some(k));
                        }
                        assert!(model.first_key_value().is_none_or(|(&k, _)| k > ack));
                        let ack = rng.range_inclusive(0, next);
                        ring.remove_through(ack);
                        model.retain(|&k, _| k > ack);
                    }
                    6 => assert_eq!(ring.pop_last(), model.pop_last()),
                    7 => assert_eq!(ring.pop_first(), model.pop_first()),
                    _ => {
                        // `markers_in_range(seq, len)` asks for
                        // `seq + 1 ..= seq + len`; either end is a held
                        // key half the time, as when a segment ends
                        // exactly on a message boundary.
                        let seq = held_or_random(&mut rng, &model, next);
                        let end = held_or_random(&mut rng, &model, next);
                        let len = if end > seq {
                            end - seq
                        } else {
                            rng.range_inclusive(1, 4000)
                        };
                        let got: Vec<(u64, u64)> = ring
                            .range(seq + 1, seq + len)
                            .map(|(k, &v)| (k, v))
                            .collect();
                        let want: Vec<(u64, u64)> = model
                            .range(seq + 1..=seq + len)
                            .map(|(&k, &v)| (k, v))
                            .collect();
                        assert_eq!(got, want, "range {}..={}", seq + 1, seq + len);
                    }
                }
                assert_eq!(
                    contents(&ring),
                    model_contents(&model),
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    ring.first().map(|(k, &v)| (k, v)),
                    model.first_key_value().map(|(&k, &v)| (k, v))
                );
                assert_eq!(ring.is_empty(), model.is_empty());
            }
        }
    }

    /// Random descending, disjoint, inclusive ranges below `span + 8`:
    /// the highest may end short of the newest key or beyond it, and the
    /// lowest may lie below every key held.
    fn random_ranges(rng: &mut SimRng, span: u64) -> Vec<(u64, u64)> {
        let mut ranges = Vec::new();
        let mut hi = rng.next_below(span + 8);
        for _ in 0..rng.next_below(6) {
            let lo = hi.saturating_sub(rng.next_below(12));
            ranges.push((lo, hi));
            let gap = 2 + rng.next_below(10);
            if lo < gap {
                break;
            }
            hi = lo - gap;
        }
        ranges
    }

    /// The windowed ACK walk removes exactly the packets the old filter
    /// found, which tested every in-flight packet against every range,
    /// and hands them over in the same ascending order.
    #[test]
    fn drain_ranges_matches_the_every_packet_filter() {
        for seed in 0..2_000 {
            let mut rng = SimRng::seed_from(seed);
            let mut ring = SeqRing::default();
            let mut model = BTreeMap::new();
            // An in-flight set with gaps: packet numbers already acked
            // or declared lost are missing.
            let base = rng.next_below(20);
            let count = rng.next_below(40);
            for pn in base..base + count {
                if rng.next_below(4) != 0 {
                    ring.insert(pn, pn * 10);
                    model.insert(pn, pn * 10);
                }
            }
            let ranges = random_ranges(&mut rng, base + count);
            let want: Vec<(u64, u64)> = model
                .iter()
                .filter(|(pn, _)| ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(*pn)))
                .map(|(&pn, &v)| (pn, v))
                .collect();
            let mut got = Vec::new();
            ring.drain_ranges(&ranges, |pn, v| got.push((pn, *v)));
            assert_eq!(got, want, "seed {seed}: ranges {ranges:?}");
            for (pn, _) in &want {
                model.remove(pn);
            }
            assert_eq!(
                contents(&ring),
                model_contents(&model),
                "seed {seed}: survivors"
            );
        }
    }
}
