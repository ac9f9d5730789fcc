//! `elastic`: the `point_read` mix sent one request at a time on the
//! `Mlds` kernel (the shell's path — add and drain need the kernel
//! exclusively) while the cluster grows by one backend and then drains
//! backend 0.
//!
//! Phases, in order: a fixed warm-up count; `add_backend`, then run
//! until `rebalance_pending() == 0`; `drain_backend(0)`, then run until
//! the queue is idle again; then steady traffic until the timed phase
//! has lasted `--seconds`. The end-of-run checks are that each
//! change's moves finish within [`REBALANCE_LIMIT`] and that the
//! cluster's `logical_digest()` equals a static 3-backend cluster's
//! given the same writes.

use crate::data::{self, Gen, Mix};
use crate::probe::{Probe, TimedKernel};
use crate::report::Report;
use crate::service::K;
use crate::stats::ratio;
use crate::{
    build_repeatedly, cpu_secs, nproc, rss_mib, trace_overhead, traced_at, CpuMarks, Opts, Sample,
    Scratch, SETUPS,
};
use abdl::{Kernel as _, Request};
use mlds::{abdl, mbds, Mlds, NamespacedKernel};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BACKENDS: usize = 3;
const DB: &str = "db0";
/// How long one membership change's moves may take before the run
/// fails (about 1 s each at 10^5 rows).
const REBALANCE_LIMIT: Duration = Duration::from_secs(60);

struct System {
    mlds: Mlds<TimedKernel<mbds::Controller>>,
    probe: Arc<Probe>,
    // Declared last: removed after the controller has shut down.
    scratch: Scratch,
}

fn build(rows: i64) -> abdl::Result<System> {
    let scratch = Scratch::new("elastic");
    let probe = Probe::new();
    let controller = mbds::Controller::durable(BACKENDS, K, scratch.path())?;
    let mut mlds = Mlds::with_kernel(TimedKernel::new(controller, probe.clone()));
    data::seed_db(mlds.kernel_mut(), DB, rows)?;
    Ok(System { mlds, probe, scratch })
}

/// The phase an operation ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Window,
    Steady,
}

/// Run `elastic`.
pub fn run(opts: &Opts) -> Report {
    let rows: i64 = if opts.short { 3_000 } else { 100_000 };
    let warmup: u64 = if opts.short { 500 } else { 20_000 };
    let mut report = Report::new("elastic", opts.trace);
    report.config = vec![
        ("nproc", nproc().to_string()),
        ("transport", "in-process".into()),
        ("backends", format!("{BACKENDS} (+1 added, backend 0 drained)")),
        ("k", K.to_string()),
        ("rows", rows.to_string()),
        ("seed", opts.seed.to_string()),
        ("clients", "1 (Mlds kernel, one request at a time)".into()),
        ("flush", "file WAL, sync_data per group commit".into()),
        ("move", "default chunk and throttle".into()),
        ("trials", format!("{SETUPS} set-ups (median), 1 timed phase")),
        ("seconds", opts.seconds.to_string()),
    ];

    let (system, setup) = build_repeatedly(|| build(rows).expect("system set-up"), drop);
    let System { mut mlds, probe, scratch } = system;

    let mut gen = Gen::new(opts.seed, 0, 0, 1, rows, Mix::PointRead).poison(opts.poison_every);
    let mut samples: Vec<Sample> = Vec::new();
    let mut phases: Vec<Phase> = Vec::new();
    let length = Duration::from_secs_f64(opts.seconds);
    let mut cpu = CpuMarks::default();
    let start = Instant::now();
    cpu.mark(probe.since_epoch(start));
    let mut step = |mlds: &mut Mlds<TimedKernel<mbds::Controller>>, report: &mut Report, phase| {
        probe.set(traced_at(opts, start.elapsed()));
        let op = gen.next_op();
        let request = abdl::parse::parse_request(&op.text).expect("generated ABDL parses");
        let t0 = Instant::now();
        let result = NamespacedKernel::new(mlds.kernel_mut(), DB).execute(&request);
        let lat = t0.elapsed().as_nanos() as u64;
        cpu.mark_every_slice(probe.since_epoch(Instant::now()));
        let traced = probe.is_on();
        samples.push(Sample { t0: probe.since_epoch(t0), lat, read: op.read, traced, units: 1 });
        phases.push(phase);
        report.count(data::check(&op.expect, &result).map_err(|e| format!("{}: {e}", op.text)));
    };

    for _ in 0..warmup {
        step(&mut mlds, &mut report, Phase::Warmup);
    }
    let warm_secs = start.elapsed().as_secs_f64();
    let window = Instant::now();
    let before = mlds.exec_totals();
    let window_cpu0 = cpu_secs();
    let window_start_ns = probe.since_epoch(window);
    // Each change's moves must finish within REBALANCE_LIMIT: a
    // rebalance that stops making progress fails the run instead of
    // hanging it.
    let pending = |mlds: &mut Mlds<TimedKernel<mbds::Controller>>| {
        mlds.kernel_mut().inner().rebalance_pending() > 0
    };
    let t = Instant::now();
    mlds.kernel_mut().inner_mut().add_backend().expect("add a backend");
    let add_ms = t.elapsed().as_secs_f64() * 1e3;
    let deadline = Instant::now() + REBALANCE_LIMIT;
    while pending(&mut mlds) && Instant::now() < deadline {
        step(&mut mlds, &mut report, Phase::Window);
    }
    let added = !pending(&mut mlds);
    report.check(format!("add_backend's moves finish within {REBALANCE_LIMIT:?}"), added);
    let mut drain_ms = 0.0;
    if added {
        let t = Instant::now();
        mlds.kernel_mut().inner_mut().drain_backend(0).expect("drain backend 0");
        drain_ms = t.elapsed().as_secs_f64() * 1e3;
        let deadline = Instant::now() + REBALANCE_LIMIT;
        while pending(&mut mlds) && Instant::now() < deadline {
            step(&mut mlds, &mut report, Phase::Window);
        }
        let drained = !pending(&mut mlds);
        report
            .check(format!("drain_backend(0)'s moves finish within {REBALANCE_LIMIT:?}"), drained);
    }
    let window_secs = window.elapsed().as_secs_f64();
    let window_cpu = cpu_secs() - window_cpu0;
    // The group moves are a fixed amount of work however many requests
    // a run gets through: their CPU is `rebalance.cpu_s`, and the
    // windows they fall in do not count towards `cpu_us_per_req`.
    let window_ns = (window_start_ns, probe.since_epoch(Instant::now()));
    let moves = crate::probe::diff(&mlds.exec_totals(), &before);
    while start.elapsed() < length {
        step(&mut mlds, &mut report, Phase::Steady);
    }
    let elapsed = start.elapsed().as_secs_f64();
    cpu.mark(probe.since_epoch(Instant::now()));
    probe.set(false);
    let rss_after = rss_mib();
    let compression = mlds.kernel_mut().inner().directory_compression();

    // The elastic cluster must store exactly what a static one given
    // the same writes stores.
    let live = mlds.kernel_mut().inner_mut().logical_digest();
    let mut fixed = mbds::Controller::with_replication(BACKENDS, K);
    data::seed_db(&mut fixed, DB, rows).expect("seed the static cluster");
    let writes: Vec<Request> =
        gen.inserted_keys().map(|u| Request::Insert { record: gen.fresh_record(DB, u) }).collect();
    for chunk in writes.chunks(crate::probe::LOAD_CHUNK) {
        for res in fixed.execute_batch(chunk) {
            res.expect("static cluster insert");
        }
    }
    let matches = live.is_ok_and(|d| fixed.logical_digest().expect("static digest") == d);
    report.check(
        format!(
            "logical digest after add + drain equals a static cluster's ({} writes)",
            writes.len()
        ),
        matches,
    );
    drop(fixed);
    drop(mlds);
    drop(scratch);

    if opts.trace {
        let calls = probe.calls();
        let (overhead, n) = trace_overhead(&[samples.clone()]);
        report.set("trace.overhead", overhead, n);
        let reads = samples.iter().filter(|s| s.traced && s.read).count();
        report.kernel_layers(&calls, reads);
        report.directory(&compression);
        let lat = |p: Phase| samples.iter().zip(&phases).filter(move |(_, q)| **q == p);
        let n_window = lat(Phase::Window).count();
        let warm_rps = ratio(warmup as f64, warm_secs);
        let window_rps = ratio(n_window as f64, window_secs);
        let worst = lat(Phase::Window).map(|(s, _)| s.lat).max().unwrap_or(0);
        report.set("rebalance.cpu_s", window_cpu, n_window);
        report.set("rebalance.add_ms", add_ms, 1);
        report.set("rebalance.drain_ms", drain_ms, 1);
        report.set("rebalance.fg_retention", ratio(window_rps, warm_rps), n_window);
        report.set("rebalance.worst_req_ms", worst as f64 / 1e6, n_window);
        // Moves piggyback on traced and untraced requests alike: count
        // the whole window, not just the traced calls.
        report.set("rebalance.groups_moved", moves.groups_moved as f64, n_window);
        report.set("rebalance.move_bytes", moves.move_bytes as f64, n_window);
        report.set("rebalance.stalls", moves.rebalance_stalls as f64, n_window);
        let mb = moves.move_bytes as f64 / 1e6;
        report.set("rebalance.move_mb_per_s", ratio(mb, window_secs), n_window);
    }
    let n_window = phases.iter().filter(|p| **p == Phase::Window).count();
    report.set("rebalance_s", window_secs, n_window);
    let start_ns = probe.since_epoch(start);
    report.end_to_end(opts, &samples, start_ns, elapsed, &cpu, Some(window_ns), &setup, rss_after);
    report
}
