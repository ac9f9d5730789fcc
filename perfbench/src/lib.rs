//! The MLDS service-level benchmark.
//!
//! Four workloads drive the system end to end through its public API
//! (`MldsService` sessions, the `Mlds` language interfaces, the
//! controller's add/drain calls) and check every answer. The layers
//! below are measured from outside: [`probe::TimedKernel`] wraps the
//! kernel and records each `execute`/`execute_batch` call's time and
//! what it added to the controller's [`abdl::ExecTotals`], the
//! workloads time their own parse and statement calls, and the
//! directory gauges are read after the timed phase. No crate of the
//! system is instrumented or changed.
//!
//! See `README.md` next to this crate for the workload and metric
//! tables.

pub mod data;
pub mod elastic;
pub mod languages;
pub mod probe;
pub mod report;
pub mod service;
pub mod stats;

pub use mlds::{abdl, mbds};
pub use report::Report;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Point reads through the sharded service on a large working set.
    PointRead,
    /// Write-heavy mix through the service over the TCP transport.
    IngestTcp,
    /// Round robin over the five language interfaces.
    Languages,
    /// Point-read mix on the shell's path through an online add + drain.
    Elastic,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] =
        [Workload::PointRead, Workload::IngestTcp, Workload::Languages, Workload::Elastic];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::IngestTcp => "ingest_tcp",
            Workload::Languages => "languages",
            Workload::Elastic => "elastic",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Small data sets, for the test suite.
    pub short: bool,
    /// Corrupt the expected answer of every `poison_every`-th point
    /// read (0 = never): proves that the answer checks bite.
    pub poison_every: u64,
}

impl Opts {
    /// Default options for `workload`.
    pub fn new(workload: Workload) -> Opts {
        Opts { workload, seed: 1, seconds: 10.0, trace: false, short: false, poison_every: 0 }
    }
}

/// Run one workload and gather its report.
pub fn run(opts: &Opts) -> Report {
    match opts.workload {
        Workload::PointRead => service::run(&service::Spec::point_read(opts), opts),
        Workload::IngestTcp => service::run(&service::Spec::ingest_tcp(opts), opts),
        Workload::Languages => languages::run(opts),
        Workload::Elastic => elastic::run(opts),
    }
}

/// Client threads: one per core, never more (closed loop, no think
/// time — on a 2-core host that is two interactive users).
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Cores the host offers, recorded in every result row.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How many times each run builds its system: the median of these
/// set-ups is `setup_s`, and the last one serves the timed phase.
pub const SETUPS: usize = 3;

/// A private scratch directory (WAL and snapshots) for one system,
/// keyed by pid, workload and a per-process counter, and removed on
/// drop — also when a check fails or a thread panics.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Create `.bench_scratch/<pid>-<workload>-<n>` under the working
    /// directory.
    pub fn new(workload: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            PathBuf::from(".bench_scratch").join(format!("{}-{workload}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the benchmark scratch directory");
        Scratch { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes currently held by the files in the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.path)
            .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
            .unwrap_or(0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once the last run's directory is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Resident memory of this process in MiB (0 where `/proc` is absent).
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed operation as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Start, ns since the probe's epoch.
    pub t0: u64,
    /// Latency, ns.
    pub lat: u64,
    /// A query (true) or an insert/update (false).
    pub read: bool,
    /// Issued while the probe was recording.
    pub traced: bool,
    /// Requests it completed (statements, for a language interaction;
    /// 0 when it failed).
    pub units: u32,
}

/// Traced runs switch the probe off and on in alternating slices of
/// this length, so drift over a run falls on traced and untraced time
/// alike and `trace.overhead` compares like with like.
pub const TRACE_SLICE: Duration = Duration::from_millis(250);

/// Whether the probe records at `since_start` into the timed phase.
pub fn traced_at(opts: &Opts, since_start: Duration) -> bool {
    opts.trace && (since_start.as_millis() / TRACE_SLICE.as_millis()) % 2 == 1
}

/// `trace.overhead`: how much longer an operation cycle (start to next
/// start, per client) takes while the probe records, as a share of the
/// cycle without it — the throughput lost to tracing. Returns the
/// overhead and the traced cycles behind it.
pub fn trace_overhead(clients: &[Vec<Sample>]) -> (f64, usize) {
    let (mut on, mut off) = ((0u64, 0usize), (0u64, 0usize));
    for samples in clients {
        for w in samples.windows(2) {
            let slot = if w[0].traced { &mut on } else { &mut off };
            slot.0 += w[1].t0.saturating_sub(w[0].t0);
            slot.1 += 1;
        }
    }
    let mean = |(ns, n): (u64, usize)| stats::ratio(ns as f64, n as f64);
    (1.0 - stats::ratio(mean(off), mean(on)), on.1)
}

/// CPU seconds (user + system) used so far by this process, its
/// reaped children and its live children (the TCP backends), from
/// `/proc`; 0 where `/proc` is absent. On a shared host whose
/// hypervisor steals CPU time, this moves far less than wall time (see
/// `README.md`).
pub fn cpu_secs() -> f64 {
    let me = std::process::id().to_string();
    // (ppid, utime + stime, cutime + cstime) in clock ticks; the fields
    // follow the parenthesised command name.
    let parse = |stat: &str| -> Option<(String, f64, f64)> {
        let f: Vec<&str> = stat[stat.rfind(')')? + 2..].split_whitespace().collect();
        let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        Some((f.get(1)?.to_string(), tick(11)? + tick(12)?, tick(13)? + tick(14)?))
    };
    let read = |p: &Path| std::fs::read_to_string(p.join("stat")).ok().and_then(|s| parse(&s));
    let mut ticks = read(Path::new("/proc/self")).map_or(0.0, |(_, own, reaped)| own + reaped);
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        if let Some((ppid, own, _)) = read(&entry.path()) {
            if ppid == me {
                ticks += own;
            }
        }
    }
    ticks / CLOCK_TICKS
}

/// CPU time read at moments of a timed phase, so that the phase's CPU
/// can be split by window.
#[derive(Debug, Default)]
pub struct CpuMarks {
    /// (ns on the probe clock, [`cpu_secs`]) in time order.
    marks: Vec<(u64, f64)>,
}

impl CpuMarks {
    /// Read the CPU time now (`at_ns` on the probe clock).
    pub fn mark(&mut self, at_ns: u64) {
        self.marks.push((at_ns, cpu_secs()));
    }

    /// [`mark`](Self::mark), unless the last mark is less than a trace
    /// slice old — for loops that call it on every operation.
    pub fn mark_every_slice(&mut self, at_ns: u64) {
        let slice = TRACE_SLICE.as_nanos() as u64;
        if self.marks.last().is_none_or(|m| at_ns.saturating_sub(m.0) >= slice) {
            self.mark(at_ns);
        }
    }

    /// CPU seconds used from `a_ns` to `b_ns`, interpolating linearly
    /// between marks.
    pub fn between(&self, a_ns: u64, b_ns: u64) -> f64 {
        self.at(b_ns) - self.at(a_ns)
    }

    fn at(&self, t: u64) -> f64 {
        let i = self.marks.partition_point(|m| m.0 <= t);
        match (i.checked_sub(1).map(|j| self.marks[j]), self.marks.get(i)) {
            (Some((t0, c0)), Some(&(t1, c1))) => {
                c0 + (c1 - c0) * (t - t0) as f64 / (t1 - t0).max(1) as f64
            }
            (Some((_, c)), None) | (None, Some(&(_, c))) => c,
            (None, None) => 0.0,
        }
    }
}

/// `USER_HZ`, the unit of the `/proc/*/stat` times (100 on Linux).
const CLOCK_TICKS: f64 = 100.0;

/// What building a system cost, over the [`SETUPS`] builds of a run.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// CPU seconds of each build (all processes of the system).
    pub cpu: Vec<f64>,
    /// Wall seconds of each build.
    pub wall: Vec<f64>,
    /// Resident MiB with the last system built, before any timed
    /// request.
    pub rss: f64,
}

/// Build a system [`SETUPS`] times, tearing each earlier one down
/// before the next is timed; returns the last one and the costs.
pub fn build_repeatedly<S>(
    mut build: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, Setup) {
    let mut setup = Setup::default();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(s) = last.take() {
            teardown(s);
        }
        let (wall, cpu) = (std::time::Instant::now(), cpu_secs());
        last = Some(build());
        setup.cpu.push(cpu_secs() - cpu);
        setup.wall.push(wall.elapsed().as_secs_f64());
    }
    setup.rss = rss_mib();
    (last.expect("SETUPS > 0"), setup)
}

/// Seconds of `[from, to)` (seconds into the timed phase) during which
/// the probe was off.
pub fn untraced_secs(opts: &Opts, from: f64, to: f64) -> f64 {
    if !opts.trace {
        return to - from;
    }
    // Slices alternate off (even) and on (odd).
    let slice = TRACE_SLICE.as_secs_f64();
    let mut t = from;
    let mut off = 0.0;
    while t < to {
        let end = ((t / slice).floor() + 1.0) * slice;
        if ((t / slice).floor() as u64) % 2 == 0 {
            off += end.min(to) - t;
        }
        t = end;
    }
    off
}
