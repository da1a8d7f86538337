//! The calibration kernel: a fixed piece of host work of the kind the
//! workloads do, written in this package so that no change to the
//! program moves it.
//!
//! The 2-vCPU hosts this benchmark runs on are shared, and other
//! tenants slow every compute-bound program on them by up to half for
//! minutes at a time; the fastest run of a slice slows as much as the
//! median. Run around each slice of a workload, the kernel measures
//! how fast the host runs that kind of work at that moment. A
//! workload's time scaled by the kernel's reference time over its
//! measured time is what the work would have taken on the host at the
//! reference speed, and stays steady across those phases. Host speed
//! and the program's own speed are then separate: a change to the
//! program moves the workload's time and leaves the kernel's alone.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference host speed: about its fastest
/// run on the 2-vCPU Xeon host the benchmark was sized on. It only sets
/// the scale of normalised times.
pub(crate) const REFERENCE_SECS: f64 = 2.0e-3;

/// Kernel time spent after each timed piece of work, as a share of
/// that work's time (at least one run).
const SHARE: f64 = 0.05;

/// Events per kernel run.
const EVENTS: u64 = 6_000;

/// Bytes of the document the kernel validates as UTF-8, about one
/// journaled HAR entry.
const DOCUMENT: usize = 48 * 1024;

/// Validations per kernel run, each from a later offset.
const SCANS: usize = 400;

/// Pending events the queue holds, as in a solo page visit.
const PENDING: u64 = 48;

/// Connections the events touch.
const CONNECTIONS: u64 = 64;

/// Packet payload bytes.
const PACKET: usize = 1_200;

/// Packets a connection keeps queued before it frees the oldest.
const QUEUED: usize = 8;

/// One run of the kernel, the two halves of about equal time: a
/// discrete-event loop over a binary-heap queue whose events allocate,
/// fill, hash and queue packet buffers in a hashed connection table,
/// then free the oldest (the simulator's kind of work); and UTF-8
/// validation of the rest of a document from successive offsets (the
/// journal parse's). Returns a checksum.
fn kernel() -> u64 {
    events().wrapping_add(scans())
}

fn events() -> u64 {
    let template: Vec<u8> = (0..PACKET).map(|i| (i * 31 % 251) as u8).collect();
    let mut queue = BinaryHeap::new();
    let mut conns: HashMap<u64, VecDeque<Vec<u8>>> = HashMap::new();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for i in 0..PENDING {
        queue.push(Reverse((next() % 1_000, i)));
    }
    let mut sum = 0u64;
    for _ in 0..EVENTS {
        let Some(Reverse((now, id))) = queue.pop() else {
            break;
        };
        let mut packet = template.clone();
        packet[(id as usize) % PACKET] ^= now as u8;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &packet[..64] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        sum = sum.wrapping_add(h);
        let conn = conns.entry(h % CONNECTIONS).or_default();
        conn.push_back(packet);
        if conn.len() > QUEUED {
            let old = conn.pop_front().unwrap_or_default();
            sum = sum.wrapping_add(old.len() as u64);
        }
        queue.push(Reverse((now + 1 + next() % 500, id)));
    }
    black_box(sum)
}

fn scans() -> u64 {
    let document: Vec<u8> = (0..DOCUMENT).map(|i| b'a' + (i % 26) as u8).collect();
    let mut sum = 0u64;
    for i in 0..SCANS {
        let rest = black_box(&document[i * 7..]);
        sum = sum.wrapping_add(std::str::from_utf8(rest).map_or(0, str::len) as u64);
    }
    black_box(sum)
}

/// Seconds one kernel run takes now.
fn run_kernel() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// Work timed between kernel runs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Timed {
    /// Wall seconds of the work.
    pub(crate) secs: f64,
    /// Seconds of the kernel runs around it.
    kernel: f64,
    /// Kernel runs around it.
    runs: u32,
}

impl Timed {
    /// Adds `other`'s work and kernel runs to these.
    pub(crate) fn add(&mut self, other: Timed) {
        self.secs += other.secs;
        self.kernel += other.kernel;
        self.runs += other.runs;
    }

    /// The work's time at the reference host speed: its wall time times
    /// [`REFERENCE_SECS`] over the kernel's mean time around it.
    pub(crate) fn normalised(&self) -> f64 {
        self.secs * REFERENCE_SECS * f64::from(self.runs) / self.kernel
    }
}

/// Runs `f` between kernel runs: one before it, and after it as many as
/// fill a [`SHARE`] of its time (one at least), so that a long piece of
/// work has the host's speed sampled at both ends.
pub(crate) fn around<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let mut kernel = run_kernel();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    let mut after = 0.0;
    let mut runs = 1;
    while runs == 1 || after < SHARE * secs {
        after += run_kernel();
        runs += 1;
    }
    kernel += after;
    (out, Timed { secs, kernel, runs })
}
