//! The one worker pool: key-ordered delivery to a sink with a bounded
//! in-flight result buffer.
//!
//! Every runner in the workspace executes here. [`super::run_keyed`]
//! is this pool with a sink that collects into a `Vec` and a window as
//! large as the job set; the population runner streams 10⁶ results
//! through a small window. The contract either way: jobs execute in
//! any order, the sink observes results in ascending key order, output
//! is bit-identical at any worker count, and at most `window` completed
//! results are held in memory.
//!
//! The mechanism: jobs are sorted by key up front and workers claim
//! `(index, job)` pairs in order from one queue, so index order *is*
//! key order. A worker that finishes job `i` parks it in an ordered
//! buffer; the caller's thread drains the buffer strictly in index
//! order, handing each result to the sink. Workers that run more than
//! `window` jobs ahead of the drain point block on a condvar until the
//! sink catches up — that back-pressure is what bounds memory.
//! Deadlock-free because indices are claimed in order: the job at the
//! drain point is always held by a worker inside the window, and it
//! always completes, because a panicking job parks its panic as its
//! result.
//!
//! A panic never hangs the pool. When the drain meets a parked panic,
//! or the sink itself panics, it raises a stop flag, wakes every
//! worker parked on the window, joins them and re-raises the original
//! payload on the caller's thread. No lock is held while a job or the
//! sink runs, so a panic cannot leave the shared state half-written.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use super::{Progress, RunnerConfig};

/// Memory-behavior report from [`run_keyed_streaming`]: the counting
/// evidence that the merge stayed bounded (asserted by tests instead of
/// OS RSS, which measures the allocator, not the algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Jobs executed (and results delivered to the sink).
    pub total: usize,
    /// Maximum number of completed-but-undelivered results buffered at
    /// any instant. Never exceeds the requested window.
    pub peak_buffered: usize,
}

/// Completed-result staging shared between workers and the draining
/// caller thread.
struct Shared<K, T> {
    /// Completed jobs waiting for the drain point, keyed by job index:
    /// the job's key and its result, or its panic. Size is bounded by
    /// the window.
    done: BTreeMap<usize, (K, thread::Result<T>)>,
    /// Next job index the sink will consume.
    next_emit: usize,
    /// High-water mark of `done.len()`.
    peak: usize,
    /// Set by the drain when it re-raises a panic: workers stop
    /// claiming jobs and leave.
    stop: bool,
}

/// Locks `m`, recovering the data if a panic poisoned it (nothing is
/// ever left half-written under these locks).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs keyed jobs on a worker pool, feeding each `(key, result)` to
/// `sink` in ascending key order **without materializing the result
/// vector**. At most `window` completed results are buffered; workers
/// block once they get that far ahead of the sink.
///
/// Equal keys are delivered in submission order (stable pre-sort), and
/// the sink observes the exact same sequence at any worker count.
/// The sink runs on the caller's thread.
///
/// # Panics
///
/// Panics if `window` is zero. If a job or the sink panics, the
/// original panic is re-raised on the caller's thread once the workers
/// have joined, at any worker count; the sink has then seen exactly
/// the results that precede the failing one in key order.
pub fn run_keyed_streaming<K, T, F, S>(
    config: &RunnerConfig,
    mut jobs: Vec<(K, F)>,
    window: usize,
    mut sink: S,
) -> StreamStats
where
    K: Ord + Send,
    T: Send,
    F: FnOnce() -> T + Send,
    S: FnMut(K, T),
{
    assert!(window > 0, "window must be at least 1");
    // Stable sort: ascending key, ties in submission order, so index
    // order is delivery order.
    jobs.sort_by(|a, b| a.0.cmp(&b.0));
    let total = jobs.len();
    let workers = config.effective_jobs().min(total.max(1));
    let mut progress = Progress::start(config, total, workers);

    if workers <= 1 || total <= 1 {
        // Serial path: execute and deliver one result at a time, in
        // this thread, so a panic propagates as it is.
        if let Some(progress) = &mut progress {
            for (k, f) in jobs {
                sink(k, f());
                progress.tick();
            }
        } else {
            for (k, f) in jobs {
                sink(k, f());
            }
        }
        return StreamStats {
            total,
            peak_buffered: total.min(1),
        };
    }

    let queue = Mutex::new(jobs.into_iter().enumerate());
    let shared = Mutex::new(Shared::<K, T> {
        done: BTreeMap::new(),
        next_emit: 0,
        peak: 0,
        stop: false,
    });
    // Workers wait on `space` for the sink to open the window; the
    // caller waits on `ready` for the next in-order result.
    let space = Condvar::new();
    let ready = Condvar::new();

    let failure = thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some((i, (key, job))) = lock(&queue).next() else {
                    break;
                };
                // Back-pressure: don't run further than `window` ahead
                // of the drain point. Because indices are claimed in
                // order, every index below `i` is already claimed, so
                // the drain point always belongs to an unblocked
                // worker (i < next_emit + window holds for it).
                {
                    let mut st = lock(&shared);
                    while !st.stop && i >= st.next_emit + window {
                        st = space.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                    if st.stop {
                        break;
                    }
                }
                let out = panic::catch_unwind(AssertUnwindSafe(job));
                let mut st = lock(&shared);
                st.done.insert(i, (key, out));
                st.peak = st.peak.max(st.done.len());
                drop(st);
                ready.notify_one();
            });
        }

        // Drain on the caller's thread: deliver results strictly in
        // index (= key) order as they become available.
        for expect in 0..total {
            let (key, out) = {
                let mut st = lock(&shared);
                loop {
                    if let Some(entry) = st.done.remove(&expect) {
                        st.next_emit = expect + 1;
                        break entry;
                    }
                    st = ready.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // The window moved: wake any workers parked on it.
            space.notify_all();
            let delivered =
                out.and_then(|value| panic::catch_unwind(AssertUnwindSafe(|| sink(key, value))));
            if let Err(payload) = delivered {
                lock(&shared).stop = true;
                space.notify_all();
                return Some(payload);
            }
            if let Some(progress) = &mut progress {
                progress.tick();
            }
        }
        None
    });
    if let Some(payload) = failure {
        panic::resume_unwind(payload);
    }

    StreamStats {
        total,
        peak_buffered: shared
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Key = (u32, u32);

    fn jobs_of(n: u32) -> Vec<(Key, impl FnOnce() -> u64 + Send)> {
        (0..n)
            .map(|i| {
                let key = (i % 7, i / 7);
                (key, move || u64::from(i) * 3 + 1)
            })
            .collect()
    }

    fn expected(n: u32) -> Vec<(Key, u64)> {
        let mut want: Vec<(Key, u64)> = (0..n)
            .map(|i| ((i % 7, i / 7), u64::from(i) * 3 + 1))
            .collect();
        want.sort_by_key(|&(k, _)| k);
        want
    }

    #[test]
    fn sink_sees_key_order_at_any_worker_count() {
        for workers in [1, 2, 4, 8] {
            let cfg = RunnerConfig::default().with_jobs(workers);
            let mut got = Vec::new();
            let stats = run_keyed_streaming(&cfg, jobs_of(100), 8, |k, v| got.push((k, v)));
            assert_eq!(got, expected(100), "workers={workers}");
            assert_eq!(stats.total, 100);
        }
    }

    #[test]
    fn counting_sink_proves_bounded_buffer() {
        // The bounded-RSS acceptance check: a counting sink (not OS
        // RSS) pins the peak number of materialized results.
        let cfg = RunnerConfig::default().with_jobs(4);
        let window = 8;
        let mut delivered = 0usize;
        let stats = run_keyed_streaming(&cfg, jobs_of(1000), window, |_, _| delivered += 1);
        assert_eq!(delivered, 1000);
        assert!(
            stats.peak_buffered <= window,
            "peak {} exceeded window {window}",
            stats.peak_buffered
        );
        assert!(stats.peak_buffered >= 1);
    }

    #[test]
    fn serial_path_buffers_at_most_one() {
        let cfg = RunnerConfig::serial();
        let mut got = Vec::new();
        let stats = run_keyed_streaming(&cfg, jobs_of(20), 4, |k, v| got.push((k, v)));
        assert_eq!(got, expected(20));
        assert_eq!(stats.peak_buffered, 1);
    }

    #[test]
    fn window_of_one_still_completes() {
        // The tightest window degenerates to lock-step delivery but
        // must neither deadlock nor reorder.
        let cfg = RunnerConfig::default().with_jobs(4);
        let mut got = Vec::new();
        let stats = run_keyed_streaming(&cfg, jobs_of(50), 1, |k, v| got.push((k, v)));
        assert_eq!(got, expected(50));
        assert_eq!(stats.peak_buffered, 1);
    }

    #[test]
    fn empty_job_set_is_fine() {
        let cfg = RunnerConfig::default().with_jobs(4);
        let jobs: Vec<(Key, fn() -> u64)> = Vec::new();
        let stats = run_keyed_streaming(&cfg, jobs, 8, |_, _| unreachable!());
        assert_eq!(stats.total, 0);
        assert_eq!(stats.peak_buffered, 0);
    }

    /// A typed panic payload, so the caller can tell the original
    /// panic from any panic the pool might raise on its own.
    struct Boom(&'static str);

    #[test]
    fn job_and_sink_panics_reraise_at_any_worker_count() {
        use std::sync::mpsc;
        use std::time::Duration;

        for workers in [1, 2, 4] {
            for culprit in ["job", "sink"] {
                // Each call runs on its own thread, so a pool that hangs
                // fails this test by timeout instead of wedging the
                // suite.
                let (tx, rx) = mpsc::channel();
                let caller = thread::spawn(move || {
                    let cfg = RunnerConfig::default().with_jobs(workers);
                    let jobs: Vec<(u32, _)> = (0..16u32)
                        .map(|i| {
                            (i, move || {
                                if culprit == "job" && i == 3 {
                                    panic::panic_any(Boom("job"));
                                }
                                i
                            })
                        })
                        .collect();
                    let mut seen = Vec::new();
                    let raised = panic::catch_unwind(AssertUnwindSafe(|| {
                        run_keyed_streaming(&cfg, jobs, 2, |k, _| {
                            if culprit == "sink" && k == 3 {
                                panic::panic_any(Boom("sink"));
                            }
                            seen.push(k);
                        })
                    }));
                    let payload = raised.err().and_then(|p| p.downcast::<Boom>().ok());
                    let _ = tx.send((payload.map(|b| b.0), seen));
                });
                let (payload, seen) = rx
                    .recv_timeout(Duration::from_secs(5))
                    .unwrap_or_else(|_| panic!("{culprit} panic hung {workers} worker(s)"));
                caller.join().expect("the caller thread caught the panic");
                assert_eq!(payload, Some(culprit), "workers={workers}");
                assert_eq!(seen, [0, 1, 2], "workers={workers} culprit={culprit}");
            }
        }
    }

    #[test]
    fn equal_keys_keep_submission_order() {
        let cfg = RunnerConfig::default().with_jobs(4);
        let jobs: Vec<(Key, _)> = (0..32u64).map(|i| ((0, 0), move || i)).collect();
        let mut got = Vec::new();
        run_keyed_streaming(&cfg, jobs, 4, |_, v| got.push(v));
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }
}
