//! `point_read` and `ingest_tcp`: closed-loop clients through the
//! concurrent front door (`MldsService` sessions) over a durable
//! controller.
//!
//! Each client thread owns one session and submits its seeded stream
//! with no think time; every answer is checked on arrival. After the
//! timed phase the admission log is replayed serially on a fresh
//! in-process system and every normalized outcome must match.

use crate::data::{self, Gen, Mix};
use crate::probe::{Call, Probe, TimedKernel};
use crate::report::Report;
use crate::stats::{percentile_of, ratio};
use crate::{
    build_repeatedly, client_threads, nproc, rss_mib, trace_overhead, traced_at, CpuMarks, Opts,
    Sample, Scratch, SETUPS, TRACE_SLICE,
};
use abdl::Kernel as _;
use mlds::service::{outcome_of, AdmissionEntry};
use mlds::{abdl, mbds, Mlds, MldsService, NamespacedKernel, ServiceSession};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Replication factor of every configuration.
pub const K: usize = 2;

/// One service workload's configuration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Backends.
    pub backends: usize,
    /// Backends as `mbds-backend` processes over TCP.
    pub tcp: bool,
    /// One database per client (true) or one shared database.
    pub db_per_client: bool,
    /// Seeded rows per database.
    pub rows: i64,
    /// Client threads, one session each.
    pub clients: usize,
    /// Operation mix.
    pub mix: Mix,
}

impl Spec {
    /// `point_read`: 4 in-process backends, 10^5 rows per client
    /// database, one `start_sharded` shard per database.
    pub fn point_read(opts: &Opts) -> Spec {
        Spec {
            name: "point_read",
            backends: 4,
            tcp: false,
            db_per_client: true,
            rows: if opts.short { 2_000 } else { 100_000 },
            clients: client_threads(),
            mix: Mix::PointRead,
        }
    }

    /// `ingest_tcp`: 4 backend processes over TCP, 10^4 rows in one
    /// database shared by every session.
    pub fn ingest_tcp(opts: &Opts) -> Spec {
        Spec {
            name: "ingest_tcp",
            backends: 4,
            tcp: true,
            db_per_client: false,
            rows: if opts.short { 2_000 } else { 10_000 },
            clients: client_threads(),
            mix: Mix::Ingest,
        }
    }

    fn dbs(&self) -> Vec<String> {
        let n = if self.db_per_client { self.clients } else { 1 };
        (0..n).map(|d| format!("db{d}")).collect()
    }

    fn db_of(&self, client: usize) -> String {
        format!("db{}", if self.db_per_client { client } else { 0 })
    }

    /// The generator of `client`: its own database's whole key range,
    /// or its slice of the shared one.
    fn gen(&self, opts: &Opts, client: usize) -> Gen {
        let (slot, of) = if self.db_per_client { (0, 1) } else { (client, self.clients) };
        Gen::new(opts.seed, client, slot, of, self.rows, self.mix).poison(opts.poison_every)
    }
}

type Kernel = TimedKernel<mbds::Controller>;

/// A built system, ready for its first timed request.
struct System {
    svc: MldsService<Kernel>,
    sessions: Vec<ServiceSession>,
    probe: Arc<Probe>,
    // Declared last: dropped after the service has shut the controller
    // (and its WAL file handles) down.
    scratch: Scratch,
}

impl System {
    /// Stop the service and shut the controller down before the
    /// scratch directory goes.
    fn teardown(self) {
        drop(self.sessions);
        drop(self.svc.into_parts());
        drop(self.scratch);
    }
}

fn build(spec: &Spec) -> abdl::Result<System> {
    let scratch = Scratch::new(spec.name);
    let controller = if spec.tcp {
        mbds::Controller::durable_over_tcp(spec.backends, K, mbds::FileLog::open(scratch.path())?)?
    } else {
        mbds::Controller::durable(spec.backends, K, scratch.path())?
    };
    let probe = Probe::new();
    let mut mlds = Mlds::with_kernel(TimedKernel::new(controller, probe.clone()));
    for db in spec.dbs() {
        data::seed_db(mlds.kernel_mut(), &db, spec.rows)?;
    }
    let mut svc = if spec.db_per_client {
        MldsService::start_sharded(mlds, spec.clients)
    } else {
        MldsService::start(mlds)
    };
    let sessions =
        (0..spec.clients).map(|c| svc.open(&format!("client{c}"), &spec.db_of(c))).collect();
    Ok(System { svc, sessions, probe, scratch })
}

#[derive(Default)]
struct ClientOut {
    samples: Vec<Sample>,
    parse_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn client(
    session: ServiceSession,
    mut gen: Gen,
    probe: Arc<Probe>,
    stop: Arc<AtomicBool>,
    start: Arc<Barrier>,
) -> ClientOut {
    let mut out = ClientOut::default();
    start.wait();
    while !stop.load(Ordering::Relaxed) {
        let op = gen.next_op();
        let traced = probe.is_on();
        let p0 = Instant::now();
        let request = abdl::parse::parse_request(&op.text).expect("generated ABDL parses");
        if traced {
            out.parse_ns.push(p0.elapsed().as_nanos() as u64);
        }
        let t0 = Instant::now();
        let result = session.submit(request);
        let lat = t0.elapsed().as_nanos() as u64;
        out.samples.push(Sample {
            t0: probe.since_epoch(t0),
            lat,
            read: op.read,
            traced,
            units: 1,
        });
        out.attempted += 1;
        if let Err(e) = data::check(&op.expect, &result) {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(format!("{}: {e}", op.text));
            }
        }
    }
    out
}

/// Run a service workload.
pub fn run(spec: &Spec, opts: &Opts) -> Report {
    let mut report = Report::new(spec.name, opts.trace);
    report.config = vec![
        ("nproc", nproc().to_string()),
        ("transport", if spec.tcp { "tcp" } else { "in-process" }.into()),
        ("backends", spec.backends.to_string()),
        ("k", K.to_string()),
        ("rows", format!("{} per database x {}", spec.rows, spec.dbs().len())),
        ("seed", opts.seed.to_string()),
        ("clients", spec.clients.to_string()),
        ("front_door", if spec.db_per_client { "start_sharded" } else { "start" }.into()),
        ("flush", "file WAL, sync_data per group commit".into()),
        ("trials", format!("{SETUPS} set-ups (median), 1 timed phase")),
        ("seconds", opts.seconds.to_string()),
    ];

    let (system, setup) =
        build_repeatedly(|| build(spec).expect("system set-up"), System::teardown);
    let System { svc, sessions, probe, scratch } = system;
    let wal_bytes0 = scratch.bytes();

    // The timed phase: the clients run flat out while this thread
    // flips the probe at slice boundaries (traced runs only).
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(spec.clients + 1));
    let joins: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(c, session)| {
            let (gen, probe, stop, barrier) =
                (spec.gen(opts, c), probe.clone(), stop.clone(), barrier.clone());
            std::thread::spawn(move || client(session, gen, probe, stop, barrier))
        })
        .collect();
    barrier.wait();
    let mut cpu = CpuMarks::default();
    let start = Instant::now();
    cpu.mark(probe.since_epoch(start));
    let length = Duration::from_secs_f64(opts.seconds);
    while start.elapsed() < length {
        let next = (start.elapsed().as_millis() / TRACE_SLICE.as_millis() + 1) as u32;
        std::thread::sleep((TRACE_SLICE * next).min(length).saturating_sub(start.elapsed()));
        probe.set(traced_at(opts, start.elapsed()));
        cpu.mark(probe.since_epoch(Instant::now()));
    }
    stop.store(true, Ordering::SeqCst);
    let outs: Vec<ClientOut> =
        joins.into_iter().map(|j| j.join().expect("client thread")).collect();
    let elapsed = start.elapsed().as_secs_f64();
    probe.set(false);
    let (mut mlds, service_report) = svc.into_parts();
    let rss_after = rss_mib();
    let wal_bytes = scratch.bytes().saturating_sub(wal_bytes0);
    let compression = mlds.kernel_mut().inner().directory_compression();
    drop(mlds);
    drop(scratch);

    let mut per_client = Vec::with_capacity(outs.len());
    let mut parse_ns = Vec::new();
    for out in outs {
        report.absorb(out.attempted, out.failed, out.errors);
        per_client.push(out.samples);
        parse_ns.extend(out.parse_ns);
    }
    let samples: Vec<Sample> = per_client.iter().flatten().copied().collect();

    let (entries, mismatches) = replay(spec, &service_report.admissions);
    report.check(
        format!("serial replay of {entries} admissions reproduces every outcome"),
        mismatches == 0 && entries as u64 == report.attempted,
    );

    if opts.trace {
        let traced: Vec<Sample> = samples.iter().copied().filter(|s| s.traced).collect();
        let calls = probe.calls();
        let (overhead, n) = trace_overhead(&per_client);
        report.set("trace.overhead", overhead, n);
        service_layers(&mut report, &traced, &calls);
        report.set("abdl.parse_us", percentile_of(&mut parse_ns, 50.0) / 1e3, parse_ns.len());
        report.kernel_layers(&calls, traced.iter().filter(|s| s.read).count());
        let writes = samples.iter().filter(|s| !s.read).count();
        report.set("wal.bytes_per_write", ratio(wal_bytes as f64, writes as f64), writes);
        report.directory(&compression);
    }
    let start_ns = probe.since_epoch(start);
    report.end_to_end(opts, &samples, start_ns, elapsed, &cpu, None, &setup, rss_after);
    report
}

/// Replay `admissions` one at a time on a fresh in-process,
/// non-durable system seeded like the live one; returns (entries,
/// mismatches).
fn replay(spec: &Spec, admissions: &[AdmissionEntry]) -> (usize, usize) {
    let mut fresh = Mlds::with_kernel(mbds::Controller::with_replication(spec.backends, K));
    for db in spec.dbs() {
        data::seed_db(fresh.kernel_mut(), &db, spec.rows).expect("seed the replay system");
    }
    let mismatches = admissions
        .iter()
        .filter(|entry| {
            let mut ns = NamespacedKernel::new(fresh.kernel_mut(), &entry.db);
            outcome_of(&ns.execute(&entry.request)) != entry.outcome
        })
        .count();
    (admissions.len(), mismatches)
}

/// `service.*` from the traced requests and the kernel batches that
/// served them. A request's covering batch is the last batch that
/// started after its submit and ended before its reply.
fn service_layers(report: &mut Report, traced: &[Sample], calls: &[Call]) {
    let mut batches: Vec<Call> = calls.iter().copied().filter(|c| c.batch).collect();
    batches.sort_by_key(Call::end_ns);
    let mut self_ns = Vec::with_capacity(traced.len());
    let mut queue_ns = Vec::with_capacity(traced.len());
    for s in traced {
        let t1 = s.t0 + s.lat;
        let idx = batches.partition_point(|c| c.end_ns() <= t1);
        if idx == 0 {
            continue;
        }
        let b = batches[idx - 1];
        if b.start_ns >= s.t0 {
            self_ns.push(s.lat.saturating_sub(b.dur_ns));
            queue_ns.push(b.start_ns - s.t0);
        }
    }
    report.set("service.self_us", percentile_of(&mut self_ns, 50.0) / 1e3, self_ns.len());
    report.set("service.queue_us", percentile_of(&mut queue_ns, 50.0) / 1e3, queue_ns.len());
    let reqs: u64 = batches.iter().map(|c| u64::from(c.len)).sum();
    report.set("service.batch_len", ratio(reqs as f64, batches.len() as f64), batches.len());
}
