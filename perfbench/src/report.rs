//! The metric catalogue and one run's report.
//!
//! The catalogue mirrors `BENCHMARK.json`: an untraced run reports
//! every [`END_TO_END`] metric and a traced run every [`PER_LAYER`]
//! one, each by name and unit. A layer a workload does not exercise
//! reports 0 with a sample count of 0.

use crate::probe::Call;
use crate::Sample;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees that stays put between identical
/// runs on a shared host, gated by a bound in `BENCHMARK.json`: the
/// CPU cost of building the system and the memory it then holds.
pub const END_TO_END: &[MetricDef] = &[m("setup_s", "s"), m("rss_mb", "MiB")];

/// The serving figures a user sees, reported by every run (over the
/// untraced slices in a traced run) but not gated: on a shared host
/// they move with the CPU time other tenants take (see `README.md`).
const SERVING: [MetricDef; 10] = [
    m("cpu_us_per_req", "us"),
    m("throughput_rps", "req/s"),
    m("latency_p50_us", "us"),
    m("latency_p99_us", "us"),
    m("read_p50_us", "us"),
    m("read_p99_us", "us"),
    m("write_p50_us", "us"),
    m("write_p99_us", "us"),
    m("setup_wall_s", "s"),
    m("rss_after_mb", "MiB"),
];

/// The language layers the `languages` workload measures, in
/// round-robin order.
pub const LANGUAGE_LAYERS: [&str; 5] =
    ["relational", "dli", "translator.network", "translator.functional", "daplex"];

/// Single-layer metrics, from traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    SERVING[0],
    SERVING[1],
    SERVING[2],
    SERVING[3],
    SERVING[4],
    SERVING[5],
    SERVING[6],
    SERVING[7],
    SERVING[8],
    SERVING[9],
    m("service.self_us", "us"),
    m("service.queue_us", "us"),
    m("service.batch_len", "count"),
    m("abdl.parse_us", "us"),
    m("engine.examined_per_req", "count"),
    m("controller.batch_p50_us", "us"),
    m("controller.batch_p99_us", "us"),
    m("controller.execute_p50_us", "us"),
    m("controller.msgs_per_req", "count"),
    m("sched.flights", "count"),
    m("sched.read_flights", "count"),
    m("sched.mixed_flights", "count"),
    m("sched.max_flight", "count"),
    m("sched.conflict_stalls", "count"),
    m("sched.probes_per_read", "count"),
    m("wal.appends", "count"),
    m("wal.syncs", "count"),
    m("wal.appends_per_sync", "count"),
    m("wal.max_batch", "count"),
    m("wal.bytes_per_write", "B"),
    m("net.retries", "count"),
    m("net.reply_timeouts", "count"),
    m("net.backoff_ms", "ms"),
    m("rebalance_s", "s"),
    m("rebalance.add_ms", "ms"),
    m("rebalance.drain_ms", "ms"),
    m("rebalance.cpu_s", "s"),
    m("rebalance.groups_moved", "count"),
    m("rebalance.move_bytes", "B"),
    m("rebalance.move_mb_per_s", "MB/s"),
    m("rebalance.stalls", "count"),
    m("rebalance.fg_retention", "fraction"),
    m("rebalance.worst_req_ms", "ms"),
    m("directory.resident_bytes", "B"),
    m("directory.compression", "x"),
    m("directory.overlay_entries", "count"),
    m("relational.self_us", "us"),
    m("relational.kernel_us", "us"),
    m("relational.abdl_per_stmt", "count"),
    m("dli.self_us", "us"),
    m("dli.kernel_us", "us"),
    m("dli.abdl_per_stmt", "count"),
    m("translator.network.self_us", "us"),
    m("translator.network.kernel_us", "us"),
    m("translator.network.abdl_per_stmt", "count"),
    m("translator.functional.self_us", "us"),
    m("translator.functional.kernel_us", "us"),
    m("translator.functional.abdl_per_stmt", "count"),
    m("daplex.self_us", "us"),
    m("daplex.kernel_us", "us"),
    m("daplex.abdl_per_stmt", "count"),
    m("trace.overhead", "fraction"),
];

/// Windows a timed phase is cut into for the end-to-end figures.
pub const WINDOWS: usize = 8;

/// Per-response failures kept verbatim in a report (the rest are only
/// counted).
const KEEP_ERRORS: usize = 5;

/// One run's outcome: counts, end-of-run checks, metric values and the
/// configuration that produced them.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub trace: bool,
    /// The run's configuration (cores, transport, backends, k, rows,
    /// seed, clients, flush policy, set-up trials, ...).
    pub config: Vec<(&'static str, String)>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Of those, operations that failed or returned a wrong answer.
    pub failed: u64,
    /// End-of-run checks: (what, passed).
    pub checks: Vec<(String, bool)>,
    /// The first few per-response failures.
    pub errors: Vec<String>,
    /// Metric values: name → (value, samples behind it).
    pub values: BTreeMap<&'static str, (f64, usize)>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, trace: bool) -> Report {
        Report {
            workload,
            trace,
            config: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            errors: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Record a metric value computed from `n` samples.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name, (value, n));
    }

    /// Record one operation's result; `Err` carries the reason.
    pub fn count(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < KEEP_ERRORS {
                self.errors.push(e);
            }
        }
    }

    /// Fold a client's counts into this report.
    pub fn absorb(&mut self, attempted: u64, failed: u64, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for e in errors {
            if self.errors.len() < KEEP_ERRORS {
                self.errors.push(e);
            }
        }
    }

    /// Record an end-of-run check.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// The end-to-end and serving figures of a timed phase that
    /// started at `start_ns` (probe clock), lasted `elapsed` seconds and
    /// used the CPU time in `cpu`, built at cost `setup`, with
    /// `rss_after` MiB resident at its end. Windows that overlap
    /// `cpu_exclude` (ns on the probe clock) do not count towards
    /// `cpu_us_per_req`.
    ///
    /// The phase is cut into [`WINDOWS`] equal windows and each figure
    /// of the phase is the median of its per-window values, so a burst
    /// of outside load that hits a minority of the windows does not
    /// move it. Wall-clock figures use the untraced samples only.
    /// Percentiles within a window are nearest-rank over the raw
    /// samples.
    #[allow(clippy::too_many_arguments)]
    pub fn end_to_end(
        &mut self,
        opts: &crate::Opts,
        samples: &[Sample],
        start_ns: u64,
        elapsed: f64,
        cpu: &crate::CpuMarks,
        cpu_exclude: Option<(u64, u64)>,
        setup: &crate::Setup,
        rss_after: f64,
    ) {
        use crate::stats::{median, percentile_of};
        self.set("setup_s", median(&setup.cpu), setup.cpu.len());
        self.set("rss_mb", setup.rss, 1);
        self.set("setup_wall_s", median(&setup.wall), setup.wall.len());
        self.set("rss_after_mb", rss_after, 1);

        let width = elapsed / WINDOWS as f64;
        let window_of = |s: &Sample| {
            ((s.t0.saturating_sub(start_ns) as f64 / 1e9 / width) as usize).min(WINDOWS - 1)
        };
        let mut units = [0u64; WINDOWS];
        let mut windows: Vec<Vec<&Sample>> = vec![Vec::new(); WINDOWS];
        for s in samples {
            units[window_of(s)] += u64::from(s.units);
            if !s.traced {
                windows[window_of(s)].push(s);
            }
        }
        let edge = |i: usize| start_ns + (i as f64 * width * 1e9) as u64;
        let cpu_per_req: Vec<f64> = (0..WINDOWS)
            .filter(|&i| units[i] > 0)
            .filter(|&i| cpu_exclude.is_none_or(|(a, b)| edge(i + 1) <= a || edge(i) >= b))
            .map(|i| cpu.between(edge(i), edge(i + 1)) * 1e6 / units[i] as f64)
            .collect();
        self.set("cpu_us_per_req", median(&cpu_per_req), units.iter().sum::<u64>() as usize);
        let per_window = |f: &dyn Fn(usize, &[&Sample]) -> Option<f64>| -> f64 {
            median(&windows.iter().enumerate().filter_map(|(i, w)| f(i, w)).collect::<Vec<_>>())
        };
        let rps = per_window(&|i, w| {
            let secs = crate::untraced_secs(opts, i as f64 * width, (i + 1) as f64 * width);
            (secs > 0.0).then(|| w.iter().map(|s| f64::from(s.units)).sum::<f64>() / secs)
        });
        let untraced: Vec<&Sample> = windows.iter().flatten().copied().collect();
        self.set("throughput_rps", rps, untraced.len());
        for (read, p50, p99) in [
            (None, "latency_p50_us", "latency_p99_us"),
            (Some(true), "read_p50_us", "read_p99_us"),
            (Some(false), "write_p50_us", "write_p99_us"),
        ] {
            let keep = |s: &&&Sample| read.is_none_or(|r| s.read == r);
            let n = untraced.iter().filter(keep).count();
            for (name, p) in [(p50, 50.0), (p99, 99.0)] {
                let v = per_window(&|_, w| {
                    let mut lat: Vec<u64> = w.iter().filter(keep).map(|s| s.lat).collect();
                    (!lat.is_empty()).then(|| percentile_of(&mut lat, p) / 1e3)
                });
                self.set(name, v, n);
            }
        }
    }

    /// The layers seen from the kernel boundary, over the traced kernel
    /// `calls`: call latencies, and the controller, engine, scheduler,
    /// WAL, wire and rebalance counters the calls added. `reads` is the
    /// number of traced queries.
    pub fn kernel_layers(&mut self, calls: &[Call], reads: usize) {
        use crate::stats::{percentile_of, ratio};
        let mut batch: Vec<u64> = calls.iter().filter(|c| c.batch).map(|c| c.dur_ns).collect();
        let mut single: Vec<u64> = calls.iter().filter(|c| !c.batch).map(|c| c.dur_ns).collect();
        let n = batch.len();
        self.set("controller.batch_p50_us", percentile_of(&mut batch, 50.0) / 1e3, n);
        self.set("controller.batch_p99_us", percentile_of(&mut batch, 99.0) / 1e3, n);
        let n = single.len();
        self.set("controller.execute_p50_us", percentile_of(&mut single, 50.0) / 1e3, n);

        let t = crate::probe::sum(calls.iter().map(|c| &c.delta));
        let n = calls.len();
        let reqs = t.requests as f64;
        self.set("engine.examined_per_req", ratio(t.records_examined as f64, reqs), n);
        self.set("controller.msgs_per_req", ratio(t.messages_sent as f64, reqs), n);
        self.set("sched.flights", t.sched_flights as f64, n);
        self.set("sched.read_flights", t.sched_read_flights as f64, n);
        self.set("sched.mixed_flights", t.sched_mixed_flights as f64, n);
        // The controller's own maxima are lifetime figures that the bulk
        // load dominates; take the largest per-call figure instead.
        let per_call_max = |num: fn(&Call) -> u64, den: fn(&Call) -> u64| {
            calls.iter().filter(|c| den(c) > 0).map(|c| num(c).div_ceil(den(c))).max().unwrap_or(0)
                as f64
        };
        self.set("sched.max_flight", per_call_max(|c| c.len.into(), |c| c.delta.sched_flights), n);
        self.set("sched.conflict_stalls", t.conflict_stalls as f64, n);
        self.set("sched.probes_per_read", ratio(t.read_probes as f64, reads as f64), reads);
        self.set("wal.appends", t.wal_appends as f64, n);
        self.set("wal.syncs", t.wal_syncs as f64, n);
        self.set("wal.appends_per_sync", ratio(t.wal_appends as f64, t.wal_syncs as f64), n);
        self.set("wal.max_batch", per_call_max(|c| c.delta.wal_appends, |c| c.delta.wal_syncs), n);
        self.set("net.retries", t.retries as f64, n);
        self.set("net.reply_timeouts", t.reply_timeouts as f64, n);
        self.set("net.backoff_ms", t.backoff_ms as f64, n);
        self.set("rebalance.groups_moved", t.groups_moved as f64, n);
        self.set("rebalance.move_bytes", t.move_bytes as f64, n);
        self.set("rebalance.stalls", t.rebalance_stalls as f64, n);
    }

    /// The directory gauges after the timed phase.
    pub fn directory(&mut self, c: &mlds::mbds::CompressionStats) {
        use crate::stats::ratio;
        self.set("directory.resident_bytes", c.resident_bytes as f64, 1);
        self.set("directory.compression", ratio(c.flat_bytes as f64, c.resident_bytes as f64), 1);
        self.set("directory.overlay_entries", c.overlay as f64, 1);
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// True when every answer was right and every end-of-run check
    /// passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The catalogue this run reports.
    pub fn catalogue(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every catalogue metric with its value and sample count.
    pub fn metrics(&self) -> Vec<(MetricDef, f64, usize)> {
        self.with_values(self.catalogue())
    }

    fn with_values(&self, defs: &[MetricDef]) -> Vec<(MetricDef, f64, usize)> {
        defs.iter()
            .map(|d| {
                let (v, n) = self.values.get(d.name).copied().unwrap_or((0.0, 0));
                (*d, v, n)
            })
            .collect()
    }

    /// The catalogue's metrics, then any other metric this run measured
    /// (an untraced run's serving figures, `elastic`'s `rebalance_s`):
    /// what the table and the row show.
    fn shown(&self) -> Vec<(MetricDef, f64, usize)> {
        let mut shown = self.metrics();
        let other = if self.trace { END_TO_END } else { PER_LAYER };
        shown.extend(
            self.with_values(other)
                .into_iter()
                .filter(|(d, _, _)| self.values.contains_key(d.name)),
        );
        shown
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .map(|(d, v, _)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, num(*v), d.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full result row: configuration, error rate, every metric
    /// with its sample count, and the end-of-run checks.
    pub fn row_json(&self) -> String {
        let config: Vec<String> =
            self.config.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
        let metrics: Vec<String> = self
            .shown()
            .iter()
            .map(|(d, v, n)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {n}}}",
                    d.name,
                    num(*v),
                    d.unit
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(what, ok)| format!("\"{}\": {ok}", what.replace('"', "'")))
            .collect();
        format!(
            "{{\"row\": {{\"workload\": \"{}\", \"trace\": {}, \"config\": {{{}}}, \
             \"error_rate\": {}, \"metrics\": {{{}}}, \"checks\": {{{}}}}}}}",
            self.workload,
            self.trace,
            config.join(", "),
            num(self.error_rate()),
            metrics.join(", "),
            checks.join(", ")
        )
    }

    /// A human-readable table of the run.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let kind = if self.trace { "traced (per layer)" } else { "untraced (end to end)" };
        let _ = writeln!(out, "workload {} — {kind}", self.workload);
        for (k, v) in &self.config {
            let _ = writeln!(out, "  {k:<14} {v}");
        }
        let _ = writeln!(out, "  {:<36} {:>16} {:<9} {:>9}", "metric", "value", "unit", "samples");
        for (d, v, n) in self.shown() {
            let _ = writeln!(out, "  {:<36} {:>16.4} {:<9} {:>9}", d.name, v, d.unit, n);
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>16.6} {:<9} {:>9}",
            "error_rate",
            self.error_rate(),
            "fraction",
            self.attempted
        );
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "  check: {what}: {}", if *ok { "pass" } else { "FAIL" });
        }
        for e in &self.errors {
            let _ = writeln!(out, "  wrong answer: {e}");
        }
        out
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
