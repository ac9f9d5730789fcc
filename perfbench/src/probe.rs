//! Outside-in instrumentation of the kernel boundary.
//!
//! [`TimedKernel`] is an [`abdl::Kernel`] that wraps the real kernel
//! (the MBDS controller) and, while its [`Probe`] is switched on, times
//! every `execute`/`execute_batch` call and counts the requests in it.
//! Switched off it only forwards, so untraced runs pay one atomic load
//! per kernel call. [`BulkLoad`] is the set-up path: a kernel adapter
//! that turns the language layers' one-at-a-time inserts into
//! `execute_batch` group commits.

use abdl::{DbKey, ExecTotals, Kernel, KernelHealth, Request, Response};
use mlds::abdl;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed kernel call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Start, in ns since the probe's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Requests in the call (1 for `execute`).
    pub len: u32,
    /// `execute_batch` (true) or `execute` (false).
    pub batch: bool,
    /// What the call added to the kernel's cumulative counters.
    pub delta: ExecTotals,
}

impl Call {
    /// End, in ns since the probe's epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// The shared recorder behind a [`TimedKernel`].
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    on: AtomicBool,
    calls: Mutex<Vec<Call>>,
    kernel_ns: AtomicU64,
    kernel_requests: AtomicU64,
}

impl Probe {
    /// A switched-off probe whose clock starts now.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            calls: Mutex::new(Vec::new()),
            kernel_ns: AtomicU64::new(0),
            kernel_requests: AtomicU64::new(0),
        })
    }

    /// Start (true) or stop (false) recording.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether calls are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Nanoseconds from the probe's epoch to `t`.
    pub fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Kernel time spent in recorded calls so far.
    pub fn kernel_ns(&self) -> u64 {
        self.kernel_ns.load(Ordering::Relaxed)
    }

    /// Requests carried by recorded calls so far.
    pub fn kernel_requests(&self) -> u64 {
        self.kernel_requests.load(Ordering::Relaxed)
    }

    /// Every recorded call, in completion order.
    pub fn calls(&self) -> Vec<Call> {
        self.calls.lock().expect("probe calls").clone()
    }

    fn record(&self, start: Instant, len: usize, batch: bool, delta: ExecTotals) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.kernel_ns.fetch_add(dur_ns, Ordering::Relaxed);
        self.kernel_requests.fetch_add(len as u64, Ordering::Relaxed);
        let call =
            Call { start_ns: self.since_epoch(start), dur_ns, len: len as u32, batch, delta };
        self.calls.lock().expect("probe calls").push(call);
    }
}

/// A kernel wrapped by a [`Probe`].
pub struct TimedKernel<K: Kernel> {
    inner: K,
    probe: Arc<Probe>,
}

impl<K: Kernel> TimedKernel<K> {
    /// Wrap `inner`, recording into `probe`.
    pub fn new(inner: K, probe: Arc<Probe>) -> TimedKernel<K> {
        TimedKernel { inner, probe }
    }

    /// The wrapped kernel (for controller-only calls such as
    /// `add_backend` and the directory gauges).
    pub fn inner_mut(&mut self) -> &mut K {
        &mut self.inner
    }

    /// The wrapped kernel, shared.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    fn begin(&self) -> Option<(Instant, ExecTotals)> {
        self.probe.is_on().then(|| (Instant::now(), self.inner.exec_totals()))
    }

    fn end(&self, begun: Option<(Instant, ExecTotals)>, len: usize, batch: bool) {
        if let Some((start, before)) = begun {
            let delta = diff(&self.inner.exec_totals(), &before);
            self.probe.record(start, len, batch, delta);
        }
    }
}

impl<K: Kernel> Kernel for TimedKernel<K> {
    fn create_file(&mut self, name: &str) {
        self.inner.create_file(name);
    }

    fn add_unique_constraint(&mut self, file: &str, attrs: Vec<String>) {
        self.inner.add_unique_constraint(file, attrs);
    }

    fn reserve_key(&mut self) -> DbKey {
        self.inner.reserve_key()
    }

    fn execute(&mut self, request: &Request) -> abdl::Result<Response> {
        let begun = self.begin();
        let out = self.inner.execute(request);
        self.end(begun, 1, false);
        out
    }

    fn execute_batch(&mut self, requests: &[Request]) -> Vec<abdl::Result<Response>> {
        let begun = self.begin();
        let out = self.inner.execute_batch(requests);
        self.end(begun, requests.len(), true);
        out
    }

    fn health(&self) -> KernelHealth {
        self.inner.health()
    }

    fn exec_totals(&self) -> ExecTotals {
        self.inner.exec_totals()
    }
}

/// Counter-wise `after - before` of two cumulative counter sets (the
/// running maxima keep `after`'s value).
pub fn diff(after: &ExecTotals, before: &ExecTotals) -> ExecTotals {
    let mut d = *after;
    each_counter(&mut d, before, u64::saturating_sub);
    d
}

/// Counter-wise sum of per-call deltas (the running maxima stay 0).
pub fn sum<'a>(deltas: impl IntoIterator<Item = &'a ExecTotals>) -> ExecTotals {
    let mut total = ExecTotals::default();
    for d in deltas {
        each_counter(&mut total, d, u64::saturating_add);
    }
    total
}

/// `a.c = op(a.c, b.c)` for every cumulative counter `c`.
fn each_counter(a: &mut ExecTotals, b: &ExecTotals, op: fn(u64, u64) -> u64) {
    macro_rules! apply {
        ($($c:ident),*) => { $( a.$c = op(a.$c, b.$c); )* };
    }
    apply!(
        requests,
        records_examined,
        messages_sent,
        wal_appends,
        wal_batches,
        wal_syncs,
        wal_snapshots,
        reply_timeouts,
        retries,
        backoff_ms,
        batched_requests,
        sched_flights,
        sched_read_flights,
        sched_mixed_flights,
        read_probes,
        read_probe_failovers,
        conflict_stalls,
        groups_moved,
        move_bytes,
        rebalance_stalls
    );
}

/// Entity keys minted by [`BulkLoad`] start here, far above anything
/// the kernel's own allocator reaches, so bulk-loaded keys never meet
/// keys the language interfaces reserve later.
pub const BULK_KEY_BASE: u64 = 1 << 40;

/// Inserts buffered per `execute_batch` call while bulk-loading.
pub const LOAD_CHUNK: usize = 256;

/// A set-up adapter for the language layers' loaders: inserts are
/// buffered and flushed as `execute_batch` group commits, and entity
/// keys come from a private range instead of one logged reservation
/// each. Any other request flushes the buffer first. Call
/// [`finish`](BulkLoad::finish) to flush the tail.
pub struct BulkLoad<'a, K: Kernel> {
    inner: &'a mut K,
    buf: Vec<Request>,
    next_key: u64,
}

impl<'a, K: Kernel> BulkLoad<'a, K> {
    /// Load through `inner`, minting keys from `first_key` upwards.
    pub fn new(inner: &'a mut K, first_key: u64) -> BulkLoad<'a, K> {
        BulkLoad { inner, buf: Vec::with_capacity(LOAD_CHUNK), next_key: first_key }
    }

    fn flush(&mut self) -> abdl::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.buf);
        for res in self.inner.execute_batch(&batch) {
            res?;
        }
        Ok(())
    }

    /// Flush buffered inserts; returns the next unused key.
    pub fn finish(mut self) -> abdl::Result<u64> {
        self.flush()?;
        Ok(self.next_key)
    }
}

impl<K: Kernel> Kernel for BulkLoad<'_, K> {
    fn create_file(&mut self, name: &str) {
        self.inner.create_file(name);
    }

    fn add_unique_constraint(&mut self, file: &str, attrs: Vec<String>) {
        self.inner.add_unique_constraint(file, attrs);
    }

    fn reserve_key(&mut self) -> DbKey {
        self.next_key += 1;
        DbKey(self.next_key)
    }

    fn execute(&mut self, request: &Request) -> abdl::Result<Response> {
        if let Request::Insert { .. } = request {
            self.buf.push(request.clone());
            if self.buf.len() >= LOAD_CHUNK {
                self.flush()?;
            }
            return Ok(Response::with_affected(1, Default::default()));
        }
        self.flush()?;
        self.inner.execute(request)
    }
}
