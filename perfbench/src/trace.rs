//! In-memory spans and counts for the traced run.
//!
//! A span records its name, start, end, parent span and the job it
//! belongs to; spans of one job share the job id. Spans and counts stay
//! in memory while the workload runs and are written out once, at the
//! end. A span's self time is its duration minus the part of it that
//! its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) id: u64,
    /// Enclosing span (0 = none).
    pub(crate) parent: u64,
    /// Job the span belongs to (0 = none).
    pub(crate) job: u64,
    pub(crate) name: &'static str,
    pub(crate) start: u64,
    pub(crate) end: u64,
}

impl Span {
    pub(crate) fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Thread-safe span and count recorder.
#[derive(Debug)]
pub(crate) struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent` for `job`;
    /// `f` receives the new span's id for its own children.
    pub(crate) fn span<T>(
        &self,
        name: &'static str,
        job: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        // The id only has to be unique; no other data hangs off it.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent,
            job,
            name,
            start,
            end,
        });
        out
    }

    /// Adds `n` to the count `name` (creating it at 0 if needed).
    pub(crate) fn add(&self, name: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .expect("count lock")
            .entry(name)
            .or_insert(0) += n;
    }

    /// The count `name`, if anything was ever added to it.
    pub(crate) fn count(&self, name: &str) -> Option<u64> {
        self.counts.lock().expect("count lock").get(name).copied()
    }

    pub(crate) fn counts(&self) -> BTreeMap<&'static str, u64> {
        self.counts.lock().expect("count lock").clone()
    }

    /// Durations (ns) of the spans named `name`.
    pub(crate) fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Share of worker time the jobs of every `phase`-named span kept
    /// busy: the jobs' (direct children's) summed durations over
    /// `workers` times the phases' summed durations.
    pub(crate) fn busy_share(&self, phase: &str, workers: usize) -> Option<f64> {
        let spans = self.spans.lock().expect("span lock");
        let phases: Vec<&Span> = spans.iter().filter(|s| s.name == phase).collect();
        let wall: u64 = phases.iter().map(|s| s.duration()).sum();
        if wall == 0 {
            return None;
        }
        let ids: std::collections::BTreeSet<u64> = phases.iter().map(|s| s.id).collect();
        let busy: u64 = spans
            .iter()
            .filter(|s| ids.contains(&s.parent))
            .map(Span::duration)
            .sum();
        Some(busy as f64 / (workers as f64 * wall as f64))
    }

    /// Per span name: sample count, total duration and total self time.
    pub(crate) fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let spans = self.spans.lock().expect("span lock");
        let self_times = self_times(&spans);
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(self_times) {
            let e = out.entry(s.name).or_default();
            e.samples += 1;
            e.total_ns += s.duration();
            e.self_ns += self_ns;
        }
        out
    }

    /// Writes every span, one JSON array per line:
    /// `[id, parent, job, name, start_ns, end_ns, self_ns]`.
    pub(crate) fn write_spans(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span lock");
        let self_times = self_times(&spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (s, self_ns) in spans.iter().zip(self_times) {
            line.clear();
            let _ = writeln!(
                line,
                "[{}, {}, {}, \"{}\", {}, {}, {self_ns}]",
                s.id, s.parent, s.job, s.name, s.start, s.end
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Aggregate of the spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanStats {
    pub(crate) samples: u64,
    pub(crate) total_ns: u64,
    pub(crate) self_ns: u64,
}

/// Self time of each span: its duration minus the union of its
/// children's intervals (children of one parent may overlap when they
/// run on different workers).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// The `q`-quantile (nearest rank) of `xs`.
pub(crate) fn quantile(xs: &[u64], q: f64) -> Option<u64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Mean of `xs`.
pub(crate) fn mean(xs: &[u64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<u64>() as f64 / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name: "s",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 80, 120),
            span(5, 2, 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 20, 20, 20, 40, 10]);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs = [5, 1, 4, 2, 3];
        assert_eq!(quantile(&xs, 0.5), Some(3));
        assert_eq!(quantile(&xs, 0.99), Some(5));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
