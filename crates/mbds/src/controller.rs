//! The backend controller (the "master") and its backend worker
//! threads (the "slaves").
//!
//! Beyond the 1987 design — a controller broadcasting to N backends
//! with private, unreplicated partitions — this controller adds the
//! availability machinery a production deployment needs:
//!
//! * **k-way replicated placement** (default k = 2): every insert goes
//!   to a replica group chosen by the [`Partitioner`]; reads are
//!   broadcast, merged, and deduplicated by database key, so replicated
//!   answers are byte-identical to a single store's.
//! * **failure detection** via reply sequence numbers, `recv_timeout`
//!   and the per-backend [`HealthBoard`] (Alive → Suspect → Dead);
//!   requests are retried on survivors instead of erroring.
//! * **recovery**: [`Controller::restart_backend`] respawns a worker
//!   and re-replicates its lost records from surviving replicas.
//! * **degraded-mode reporting**: every response carries `degraded` and
//!   `unavailable_backends`, and [`Kernel::health`] exposes the board.
//! * **deterministic fault injection** ([`FaultPlan`]) applied inside
//!   the worker loop, for reproducible availability experiments.

use crate::directory::Directory;
use crate::fault::{FaultKind, FaultPlan};
use crate::health::{BackendState, HealthBoard};
use crate::net::{self, kind, Frame, NetFaultPlan, TcpLink, WireOp, WireReply};
use crate::placement::Partitioner;
use crate::rebalance::{self, MoveJob, Rebalancer};
use crate::sched;
use crate::unique::UniqueIndex;
use crate::wal::{FileLog, LogRecord, LogStore, SnapshotData, Wal, WalStats};
use abdl::engine::aggregate;
use abdl::{
    DbKey, Error, ExecTotals, Kernel, KernelHealth, Record, Request, Response, Result, Store,
    Transaction,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::Path;
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default replica count per record (clamped to the backend count).
pub const DEFAULT_REPLICATION: usize = 2;

/// Default number of retransmissions the socket transport attempts
/// inside one reply window before letting the health board demote the
/// backend (the in-process channel bus is lossless and never retries).
pub const DEFAULT_RETRY_BUDGET: u32 = 3;

/// A stable client identity for idempotent request ids: constant
/// across reconnects of one controller, distinct across controllers
/// (and across promoted incarnations), so the backends' reply caches
/// never mix two senders' sequence spaces.
fn next_client_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    ((std::process::id() as u64) << 32) | NEXT.fetch_add(1, Ordering::Relaxed)
}

pub(crate) enum BackendOp {
    CreateFile(String),
    InsertWithKey(DbKey, Record),
    Exec(Request),
    /// Physically remove records by key — the cleanup half of a
    /// rebalance group move. A copy left behind on an abandoned member
    /// would be resurrected by the next broadcast read.
    DeleteKeys(Vec<DbKey>),
    /// Fetch records by key — the copy half of a rebalance chunk. The
    /// move path asks for exactly the chunk's keys instead of scanning
    /// whole files, so a chunk costs O(chunk), not O(database).
    FetchKeys(Vec<DbKey>),
    Shutdown,
}

/// One message on the controller→backend bus. The reply sender rides
/// in the envelope (rather than being fixed at spawn) so a promoted
/// standby can address the same backend threads over fresh reply
/// channels — stale replies queued for the demoted controller can
/// never reach the new one. `epoch` is the sender's controller epoch;
/// backends reject envelopes below the cluster fence.
pub(crate) struct Envelope {
    seq: u64,
    epoch: u64,
    reply: Sender<Reply>,
    op: BackendOp,
}

struct Reply {
    seq: u64,
    result: Result<Response>,
}

/// One flight member's state between the batch scheduler's staging
/// (send) and collection (reply) phases — see
/// `Controller::execute_flight`.
struct StagedInsert {
    key: DbKey,
    file: String,
    seq: u64,
    /// Backends the staged wave reached.
    sent: Vec<usize>,
    /// Backends that acknowledged the write.
    assigned: Vec<usize>,
    /// First error any wave member returned (drained, as always).
    err: Option<Error>,
    /// Placement scan cursor: substitute waves continue where the
    /// staged wave stopped.
    primary: usize,
    scanned: usize,
    /// Backend messages attributed to this member's response.
    msgs: u64,
}

/// One read flight member's state between the batch scheduler's
/// staging (send) and collection (reply) phases — the read-side
/// counterpart of [`StagedInsert`].
struct StagedRead {
    seq: u64,
    /// The request actually sent (`retrieve_all` for aggregates, the
    /// original retrieve otherwise) — kept for probe failover resends.
    wire: Request,
    /// Backends the round reached.
    sent: Vec<usize>,
    /// Untried replicas that can each answer the whole probe, in
    /// failover order (empty for non-probe reads).
    fallback: Vec<usize>,
    /// Merged partial responses collected so far.
    merged: Response,
    /// First error any contacted backend returned (the round is always
    /// fully drained first).
    err: Option<Error>,
    /// A contacted backend died before answering. For a probe the
    /// merged answer is missing entirely and phase 3 fails over to a
    /// replica; for a routed round the survivors carry the answer
    /// (degraded-mode reporting covers the rest), exactly like
    /// `send_round`.
    lost: bool,
    /// True when this member went out as a single-backend probe.
    probe: bool,
    /// Backend messages attributed to this member's response.
    msgs: u64,
}

/// One member of a batch flight, in admission order.
enum FlightItem<'a> {
    Insert(&'a Record),
    Read(&'a Request),
}

/// A flight member's in-flight state, same position as its item.
enum Staged {
    Insert(Result<StagedInsert>),
    Read(Box<StagedRead>),
}

struct BackendHandle {
    tx: Sender<Envelope>,
    rx: Receiver<Reply>,
    reply_tx: Sender<Reply>,
    join: Option<JoinHandle<()>>,
    /// `Some` when this backend is a separate OS process reached over
    /// TCP; the channel fields above are inert placeholders then.
    tcp: Option<TcpLink>,
    /// The last frame sent on the TCP link — the retransmission stash.
    /// The controller keeps at most one request in flight per backend,
    /// so one slot is exactly enough.
    last_frame: Option<Frame>,
}

/// The shared state of a socket-transport cluster: where the backend
/// processes listen (kept current across restarts), their OS child
/// handles (holding them keeps the backends' stdin pipes open — each
/// backend's watchdog exits when every holder is gone), and the
/// network fault plan every link consults. Shared between a primary
/// and its standby, so a demoted primary being dropped cannot take the
/// processes down while the promoted controller is serving over them.
pub(crate) struct SharedNet {
    addrs: Mutex<Vec<SocketAddr>>,
    children: Mutex<Vec<Option<Child>>>,
    plan: Arc<Mutex<NetFaultPlan>>,
}

/// Everything a [`crate::Standby`] needs to take over the primary's
/// backend threads at promotion time: the shared sender bus (kept
/// current across backend restarts), the shared fence, the shared
/// fault plan, the reply timeout, and (on the socket transport) the
/// shared process/address table.
pub(crate) struct ClusterLink {
    pub(crate) bus: Arc<Mutex<Vec<Sender<Envelope>>>>,
    pub(crate) fence: Arc<AtomicU64>,
    pub(crate) faults: Arc<Mutex<FaultPlan>>,
    pub(crate) reply_timeout: Duration,
    pub(crate) net: Option<Arc<SharedNet>>,
}

/// The warm state a standby's mirror hands to
/// [`Controller::promoted`].
pub(crate) struct PromotedParts {
    pub(crate) partitioner: Partitioner,
    pub(crate) replication: usize,
    pub(crate) next_key: u64,
    pub(crate) uniques: UniqueIndex,
    pub(crate) files: Vec<String>,
    pub(crate) directory: Directory,
    pub(crate) resident: HashMap<String, Vec<u64>>,
    pub(crate) dead: Vec<usize>,
    pub(crate) draining: BTreeSet<usize>,
    pub(crate) retired: BTreeSet<usize>,
    pub(crate) unwrapping: bool,
}

/// The MBDS controller: owns the backends, assigns database keys,
/// places inserted records on replica groups, broadcasts everything
/// else and merges (and deduplicates) the partial responses.
pub struct Controller {
    backends: Vec<BackendHandle>,
    health: HealthBoard,
    partitioner: Partitioner,
    replication: usize,
    next_key: u64,
    next_seq: u64,
    /// This controller's epoch: 0 for a fresh controller, higher for
    /// one installed by standby promotion. Stamped into every WAL line
    /// and backend envelope.
    epoch: u64,
    /// The cluster fence, shared with every backend thread (and any
    /// standby): envelopes below it are rejected, so a demoted
    /// controller's stray writes go nowhere.
    fence: Arc<AtomicU64>,
    /// The live command senders, one per backend, shared with any
    /// standby. `restart_backend` replaces a slot in place, so a
    /// standby attached before the restart still promotes onto the
    /// *current* channels.
    bus: Arc<Mutex<Vec<Sender<Envelope>>>>,
    /// `DUPLICATES ARE NOT ALLOWED` groups and their exact value
    /// index, enforced *globally* here (see [`UniqueIndex`]).
    uniques: UniqueIndex,
    /// Files created so far, in creation order; replayed into restarted
    /// backends before re-replication.
    files: Vec<String>,
    /// Which backends hold each record — the recovery and degraded-mode
    /// source of truth. Replica sets are interned ([`Directory`]), so a
    /// million records cost a map slot each, not a `Vec` each.
    directory: Directory,
    /// Shared with the worker threads; swap via `set_fault_plan`.
    faults: Arc<Mutex<FaultPlan>>,
    reply_timeout: Duration,
    /// `create_file` cannot return an error through the `Kernel` trait;
    /// a total failure is stashed here and surfaced by the next
    /// `execute` (see `try_create_file` for the fallible API).
    pending_error: Option<Error>,
    degraded_cache: bool,
    degraded_dirty: bool,
    /// Write-ahead log for durable controllers (`None` on the plain
    /// in-memory constructors, and during recovery replay — replayed
    /// operations must not be re-logged).
    wal: Option<Wal>,
    /// Per-file, per-backend record counts derived from the directory —
    /// which backends can hold records of each file. Drives file-scoped
    /// routing; may over-count for records whose data was lost (safe:
    /// routing to an extra backend only costs a message).
    resident: HashMap<String, Vec<u64>>,
    /// Scoped routing on/off (`false` = broadcast every request, the
    /// pre-router behaviour and the E15 ablation baseline).
    scoped_routing: bool,
    /// Unique checks through the in-memory index (`false` = legacy
    /// broadcast retrieve probe, the E15 ablation baseline).
    unique_via_index: bool,
    /// Replica writes sent to the whole wave concurrently (`false` =
    /// one sequential round trip per replica, the E15 baseline).
    parallel_writes: bool,
    /// Reads admitted into batch flights (`false` = every read
    /// round-trips solo inside the batch, the pre-PR9 behaviour and
    /// the E20 serial-read baseline).
    parallel_reads: bool,
    /// Key-scoped single-backend probes sent, per backend — how evenly
    /// the point-read load spreads across replica groups.
    read_probes_by_backend: Vec<u64>,
    /// Lifetime execution counters (requests, messages, examined).
    totals: ExecTotals,
    /// Backends being drained: excluded from new placement and from
    /// drain-substitute choices, still serving reads until their last
    /// group move commits and `drain-end` retires them.
    draining: BTreeSet<usize>,
    /// True between `add-backend` and `add-end`: the unwrap rebalance
    /// for an online add has not finished yet (recovery re-plans the
    /// remaining moves from this flag).
    unwrapping: bool,
    /// The throttled queue of pending group moves.
    rebalancer: Rebalancer,
    /// Records relocated per WAL bracket: large groups move as a
    /// sequence of bounded chunks so a pump step never stalls a
    /// foreground request behind a whole-group copy.
    move_chunk: usize,
    /// Remaining key list of the group currently being moved, scanned
    /// once and drained chunk by chunk. Purely an in-memory cache: it
    /// is never persisted, and recovery / retry paths rescan instead.
    move_cursor: Option<(Vec<usize>, Vec<DbKey>)>,
    /// `Some` when the backends are separate OS processes over TCP.
    net: Option<Arc<SharedNet>>,
    /// Retransmissions attempted per reply window on the socket
    /// transport (the channel bus never retries).
    retry_budget: u32,
    /// This controller's wire identity (0 on the channel transport).
    client_id: u64,
}

impl Controller {
    /// Spawn a controller with `n` backend threads and the default
    /// replication factor (2, clamped to `n`).
    pub fn new(n: usize) -> Self {
        Controller::with_replication(n, DEFAULT_REPLICATION.min(n))
    }

    /// Spawn a controller with `n` backends and an unreplicated layout
    /// (k = 1): the paper's original MBDS, where each record lives on
    /// exactly one backend. Killing a backend loses its partition.
    pub fn unreplicated(n: usize) -> Self {
        Controller::with_replication(n, 1)
    }

    /// Spawn a controller with `n` backend threads keeping `k` copies
    /// of every record (`1 <= k <= n`). When the `MBDS_TRANSPORT=tcp`
    /// environment variable is set, the backends are spawned as
    /// separate OS processes reached over the socket transport instead
    /// — which is how the existing crash/failover sweeps run unchanged
    /// over TCP.
    pub fn with_replication(n: usize, k: usize) -> Self {
        if std::env::var("MBDS_TRANSPORT").as_deref() == Ok("tcp") {
            return Controller::over_tcp(n, k)
                .expect("MBDS_TRANSPORT=tcp: spawning backend processes failed");
        }
        Controller::with_replication_chan(n, k)
    }

    /// Spawn a controller with `n` backends, `k` copies per record and
    /// a caller-chosen reply window instead of the 1-second default —
    /// the constructor form of [`set_reply_timeout`](Self::set_reply_timeout)
    /// for deployments whose links are slower (or test rigs that want
    /// failure detection in milliseconds).
    pub fn with_timeouts(n: usize, k: usize, reply_timeout: Duration) -> Self {
        let mut c = Controller::with_replication(n, k);
        c.set_reply_timeout(reply_timeout);
        c
    }

    /// Spawn a controller whose `n` backends are separate OS processes
    /// (`mbds-backend`) reached over the fault-injectable socket
    /// transport, keeping `k` copies of every record.
    pub fn over_tcp(n: usize, k: usize) -> Result<Self> {
        let mut c = Controller::with_replication_chan(n, k);
        let client_id = next_client_id();
        let plan: Arc<Mutex<NetFaultPlan>> = Arc::default();
        let mut addrs = Vec::with_capacity(n);
        let mut children = Vec::with_capacity(n);
        for i in 0..n {
            let bp = net::spawn_backend_process(i)?;
            let mut link = TcpLink::new(i, bp.addr, client_id, Arc::clone(&plan));
            link.connect(0, Duration::from_millis(3000)).map_err(|e| {
                Error::Internal(format!("backend {i} at {} refused the handshake: {e:?}", bp.addr))
            })?;
            addrs.push(bp.addr);
            children.push(Some(bp.child));
            // Swap the thread-backed handle for a TCP one and retire
            // the placeholder thread: dropping its command sender
            // disconnects the worker loop, which then exits.
            let (tx, _) = channel::<Envelope>();
            let (reply_tx, rx) = channel::<Reply>();
            let old = std::mem::replace(
                &mut c.backends[i],
                BackendHandle { tx, rx, reply_tx, join: None, tcp: Some(link), last_frame: None },
            );
            c.bus.lock().expect("bus lock")[i] = c.backends[i].tx.clone();
            let BackendHandle { tx: old_tx, join: old_join, .. } = old;
            drop(old_tx);
            if let Some(join) = old_join {
                let _ = join.join();
            }
        }
        c.net = Some(Arc::new(SharedNet {
            addrs: Mutex::new(addrs),
            children: Mutex::new(children),
            plan,
        }));
        c.client_id = client_id;
        Ok(c)
    }

    /// The channel-transport constructor body: `n` worker threads on
    /// the in-process bus.
    pub(crate) fn with_replication_chan(n: usize, k: usize) -> Self {
        assert!(n > 0, "MBDS needs at least one backend");
        assert!((1..=n).contains(&k), "replication factor must be in 1..=n, got {k}");
        let faults: Arc<Mutex<FaultPlan>> = Arc::default();
        let fence: Arc<AtomicU64> = Arc::default();
        let backends: Vec<BackendHandle> =
            (0..n).map(|i| spawn_backend(i, Arc::clone(&fence), Arc::clone(&faults))).collect();
        let bus = Arc::new(Mutex::new(backends.iter().map(|b| b.tx.clone()).collect()));
        Controller {
            backends,
            health: HealthBoard::new(n),
            partitioner: Partitioner::new(n),
            replication: k,
            next_key: 1,
            next_seq: 1,
            epoch: 0,
            fence,
            bus,
            uniques: UniqueIndex::default(),
            files: Vec::new(),
            directory: Directory::new(),
            faults,
            reply_timeout: Duration::from_millis(1000),
            pending_error: None,
            degraded_cache: false,
            degraded_dirty: false,
            wal: None,
            resident: HashMap::new(),
            scoped_routing: true,
            unique_via_index: true,
            parallel_writes: true,
            parallel_reads: true,
            read_probes_by_backend: vec![0; n],
            totals: ExecTotals::default(),
            draining: BTreeSet::new(),
            unwrapping: false,
            rebalancer: Rebalancer::new(),
            move_chunk: rebalance::DEFAULT_MOVE_CHUNK,
            move_cursor: None,
            net: None,
            retry_budget: DEFAULT_RETRY_BUDGET,
            client_id: 0,
        }
    }

    /// Spawn a **durable** controller: `n` backends, `k` copies per
    /// record, logging every directory mutation to `dir`
    /// (`wal.log` + `snapshot.mbds`). The directory must not already
    /// hold controller state — use [`Controller::recover`] for that.
    pub fn durable(n: usize, k: usize, dir: impl AsRef<Path>) -> Result<Self> {
        Controller::durable_with(n, k, FileLog::open(dir)?)
    }

    /// [`Controller::durable`] over any [`LogStore`] — the harness and
    /// the simulator use a shared in-memory [`crate::MemLog`].
    pub fn durable_with(n: usize, k: usize, store: impl LogStore + 'static) -> Result<Self> {
        if store.has_state()? {
            return Err(Error::Internal(
                "log already holds controller state; use Controller::recover".into(),
            ));
        }
        let mut c = Controller::with_replication(n, k);
        c.wal = Some(Wal::create(Box::new(store)));
        // Anchor the configuration: even an empty log recovers n and k
        // from this initial snapshot.
        c.snapshot_now()?;
        Ok(c)
    }

    /// [`Controller::durable_with`] over the socket transport: the
    /// backends are separate OS processes regardless of
    /// `MBDS_TRANSPORT` (tests use this to mix transports in one
    /// process without touching the environment).
    pub fn durable_over_tcp(n: usize, k: usize, store: impl LogStore + 'static) -> Result<Self> {
        if store.has_state()? {
            return Err(Error::Internal(
                "log already holds controller state; use Controller::recover".into(),
            ));
        }
        let mut c = Controller::over_tcp(n, k)?;
        c.wal = Some(Wal::create(Box::new(store)));
        c.snapshot_now()?;
        Ok(c)
    }

    /// Rebuild a controller from the durable state in `dir`: read the
    /// snapshot, re-spawn the backends, reload their partitions, replay
    /// the post-snapshot log entries in order (re-replicating from
    /// survivors where the log says a restart happened), and continue
    /// appending where the crashed incarnation stopped.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Self> {
        Controller::recover_with(FileLog::open(dir)?)
    }

    /// [`Controller::recover`] over any [`LogStore`].
    pub fn recover_with(store: impl LogStore + 'static) -> Result<Self> {
        let (snapshot, entries, mut wal) = Wal::load(Box::new(store))?;
        let snapshot = snapshot.ok_or_else(|| {
            Error::Internal("no snapshot found — nothing to recover".into())
        })?;
        if snapshot.backends == 0 || !(1..=snapshot.backends).contains(&snapshot.replication) {
            return Err(Error::Internal(format!(
                "snapshot has invalid configuration: {} backends, replication {}",
                snapshot.backends, snapshot.replication
            )));
        }
        let mut c = Controller::with_replication(snapshot.backends, snapshot.replication);
        // `c.wal` stays `None` through the replay so nothing re-logs.
        c.apply_snapshot(&snapshot)?;
        for entry in &entries {
            c.apply_entry(entry)?;
        }
        // A crash mid-rebalance leaves the membership goal durable
        // (`add-backend` without `add-end`, `drain-begin` without
        // `drain-end`) but the move queue in memory: re-derive the
        // remaining moves from the recovered directory. Planning is
        // state-based, so moves that committed before the crash drop
        // out and the re-plan converges to the same final placement.
        c.replan_rebalance();
        // Recovery starts a *new* lineage: bump past the highest epoch
        // the store has seen (line stamps or fence) and durably raise
        // the fence to match. Merely adopting the highest epoch would
        // share it with whoever stamped it — a standby promoted from
        // this store while its primary was down would write the same
        // epoch as the recovered controller (the model checker's
        // `recover-without-refence` counterexample). The bump also
        // fences out any still-running earlier incarnation on the same
        // store, making cold recovery safe even racing a promotion:
        // the higher epoch wins, the other is refused at the store.
        wal.refence(wal.epoch() + 1)?;
        c.epoch = wal.epoch();
        c.fence.store(c.epoch, Ordering::SeqCst);
        c.wal = Some(wal);
        Ok(c)
    }

    /// Attach a hot standby to this (durable) controller: the standby
    /// tails `store` — which must be another handle onto the same log
    /// this controller writes (a cloned [`crate::MemLog`], or a second
    /// [`FileLog`] opened on the same directory) — keeps a warm replica
    /// of the full controller state, and can
    /// [`promote`](crate::Standby::promote) itself over these same
    /// backend threads without a replay pause.
    pub fn standby(&self, store: Box<dyn LogStore>) -> Result<crate::Standby> {
        if self.wal.is_none() {
            return Err(Error::Internal(
                "only a durable controller can ship its log to a standby".into(),
            ));
        }
        crate::Standby::attach(self.cluster_link(), store)
    }

    /// The handles a standby needs to take over this cluster.
    pub(crate) fn cluster_link(&self) -> ClusterLink {
        ClusterLink {
            bus: Arc::clone(&self.bus),
            fence: Arc::clone(&self.fence),
            faults: Arc::clone(&self.faults),
            reply_timeout: self.reply_timeout,
            net: self.net.clone(),
        }
    }

    /// Build the promoted controller a standby installs at failover:
    /// fresh reply channels over the cluster's existing command
    /// senders (`join: None` — the primary spawned the threads), warm
    /// state copied from the standby's mirror, and a [`Wal`] resuming
    /// the shipped log at the fenced `epoch`.
    pub(crate) fn promoted(
        link: ClusterLink,
        wal: Wal,
        epoch: u64,
        parts: PromotedParts,
    ) -> Controller {
        let senders: Vec<Sender<Envelope>> = link.bus.lock().expect("bus lock").clone();
        let n = senders.len();
        let mut health = HealthBoard::new(n);
        for &i in &parts.dead {
            health.channel_closed(i);
        }
        let client_id = if link.net.is_some() { next_client_id() } else { 0 };
        let retired = parts.retired.clone();
        let backends = if let Some(shared) = link.net.as_ref() {
            // Socket transport: dial every backend process with a fresh
            // identity. The Hello carries the promoted epoch, raising
            // each reachable backend's fence *now* — the isolated old
            // primary is fenced out of the remote backends before this
            // controller serves its first request. Unreachable backends
            // stay unconnected; the first send retries the dial.
            let addrs = shared.addrs.lock().expect("net addrs lock").clone();
            addrs
                .into_iter()
                .enumerate()
                .map(|(i, addr)| {
                    let mut tcp = TcpLink::new(i, addr, client_id, Arc::clone(&shared.plan));
                    let _ = tcp.connect(epoch, link.reply_timeout);
                    let (tx, _) = channel::<Envelope>();
                    let (reply_tx, rx) = channel::<Reply>();
                    BackendHandle { tx, rx, reply_tx, join: None, tcp: Some(tcp), last_frame: None }
                })
                .collect()
        } else {
            senders
                .into_iter()
                .map(|tx| {
                    let (reply_tx, rx) = channel::<Reply>();
                    BackendHandle { tx, rx, reply_tx, join: None, tcp: None, last_frame: None }
                })
                .collect()
        };
        let mut c = Controller {
            backends,
            health,
            partitioner: parts.partitioner,
            replication: parts.replication,
            next_key: parts.next_key,
            next_seq: 1,
            epoch,
            fence: link.fence,
            bus: link.bus,
            uniques: parts.uniques,
            files: parts.files,
            directory: parts.directory,
            faults: link.faults,
            reply_timeout: link.reply_timeout,
            pending_error: None,
            degraded_cache: false,
            degraded_dirty: true,
            wal: Some(wal),
            resident: parts.resident,
            scoped_routing: true,
            unique_via_index: true,
            parallel_writes: true,
            parallel_reads: true,
            read_probes_by_backend: vec![0; n],
            totals: ExecTotals::default(),
            draining: parts.draining,
            unwrapping: parts.unwrapping,
            rebalancer: Rebalancer::new(),
            move_chunk: rebalance::DEFAULT_MOVE_CHUNK,
            move_cursor: None,
            net: link.net,
            retry_budget: DEFAULT_RETRY_BUDGET,
            client_id,
        };
        // Socket transport: a backend the mirror saw dead may only have
        // been unreachable *from the partitioned primary* — if its
        // process just answered our Hello, it is alive with its store
        // intact. Restore those; the genuinely unreachable stay dead
        // (and `finish_interrupted_restart` / `restart_backend` handle
        // them the heavy way).
        if c.net.is_some() {
            for i in 0..c.backends.len() {
                let connected =
                    c.backends[i].tcp.as_ref().is_some_and(|link| link.is_connected());
                if connected && !c.health.is_serving(i) {
                    if retired.contains(&i) {
                        // Not a partition casualty: the primary logged
                        // `drain-end` but died before stopping the
                        // worker. Finish the retirement instead of
                        // restoring an emptied backend into service.
                        let frame = WireOp::Shutdown.into_frame(0, c.epoch);
                        if let Some(link) = c.backends[i].tcp.as_mut() {
                            let _ = link.send(&frame);
                        }
                        c.reap_child(i);
                    } else {
                        let _ = c.restore_reconnected(i);
                    }
                }
            }
        }
        c
    }

    /// Total number of backends (alive or dead).
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Number of backends not marked dead.
    pub fn alive_count(&self) -> usize {
        self.health.serving_count()
    }

    /// Copies kept per record.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Install a fault plan; it applies to messages the backends have
    /// not yet processed. Message counters are per-backend and count
    /// from the backend's first message ever, so install the plan
    /// before the traffic it should disturb.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        *self.faults.lock().expect("fault plan lock") = plan.clone();
        if self.net.is_some() {
            // Remote backends keep their own plan copy: ship it.
            for i in 0..self.backends.len() {
                if self.health.is_serving(i) {
                    self.push_faults_tcp(i, &plan);
                }
            }
        }
    }

    /// Ship the classic fault plan to backend process `i` and await
    /// its ack (best effort — an unreachable backend will get the plan
    /// again if it is restarted).
    fn push_faults_tcp(&mut self, i: usize, plan: &FaultPlan) -> bool {
        let seq = self.next_seq();
        let frame = WireOp::SetFaults(plan.clone()).into_frame(seq, self.epoch);
        let epoch = self.epoch;
        let dial = self.reply_timeout;
        let Some(link) = self.backends[i].tcp.as_mut() else { return false };
        let sent = match link.send(&frame) {
            Ok(()) => true,
            Err(_) => link.connect(epoch, dial).is_ok() && link.send(&frame).is_ok(),
        };
        if !sent {
            return false;
        }
        let deadline = Instant::now() + dial;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            match link.recv(left) {
                Ok(Some(f)) if f.seq == seq && f.kind == kind::REPLY_OK => return true,
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => return false,
            }
        }
    }

    /// Wait (briefly) for backend process `i` to exit, then make sure
    /// of it. No-op on the channel transport.
    fn reap_child(&mut self, i: usize) {
        let Some(shared) = self.net.as_ref() else { return };
        let child = shared.children.lock().expect("net children lock")[i].take();
        if let Some(mut child) = child {
            for _ in 0..50 {
                if matches!(child.try_wait(), Ok(Some(_))) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// How long the controller waits for one reply window before
    /// demoting a backend (two windows: Alive → Suspect → Dead).
    pub fn set_reply_timeout(&mut self, timeout: Duration) {
        self.reply_timeout = timeout;
    }

    /// The configured reply-window length.
    pub fn reply_timeout(&self) -> Duration {
        self.reply_timeout
    }

    /// Retransmissions attempted inside one reply window on the socket
    /// transport (ignored by the lossless channel bus).
    pub fn set_retry_budget(&mut self, budget: u32) {
        self.retry_budget = budget.min(8);
    }

    /// True when the backends are separate OS processes over TCP.
    pub fn is_tcp(&self) -> bool {
        self.net.is_some()
    }

    /// Install a network fault plan (socket transport only; a no-op on
    /// the channel bus, which has no network to disturb). Applies to
    /// frames not yet moved; per-link frame counters start at the
    /// link's first frame ever.
    pub fn set_net_fault_plan(&mut self, plan: NetFaultPlan) {
        if let Some(shared) = self.net.as_ref() {
            *shared.plan.lock().expect("net plan lock") = plan;
        }
    }

    /// Sever the link to backend `i` — a real partition: frames in
    /// both directions fail until [`heal_link`](Self::heal_link).
    /// Socket transport only.
    pub fn sever_link(&mut self, i: usize) {
        if let Some(link) = self.backends.get_mut(i).and_then(|b| b.tcp.as_mut()) {
            link.sever();
        }
    }

    /// Heal a severed link; the next send re-dials.
    pub fn heal_link(&mut self, i: usize) {
        if let Some(link) = self.backends.get_mut(i).and_then(|b| b.tcp.as_mut()) {
            link.heal();
        }
    }

    /// The health board's current verdict on backend `i`.
    pub fn backend_state(&self, i: usize) -> BackendState {
        self.health.state(i)
    }

    /// Re-probe a backend that went Suspect/Dead and came back: dial
    /// it, check its epoch against ours, and — if the same process
    /// answers (its store intact; a dead process cannot answer) —
    /// restore it to Alive without the full anti-entropy restart. A
    /// process that is really gone falls back to
    /// [`restart_backend`](Self::restart_backend), as does the channel
    /// transport (a worker thread's death always loses its store).
    pub fn reconnect_backend(&mut self, i: usize) -> Result<()> {
        if i >= self.backends.len() {
            return Err(Error::Internal(format!("no such backend {i}")));
        }
        if self.health.is_serving(i) && self.health.state(i) == BackendState::Alive {
            return Ok(());
        }
        if self.backends[i].tcp.is_none() {
            return self.restart_backend(i);
        }
        let epoch = self.epoch;
        let dial = self.reply_timeout;
        let link = self.backends[i].tcp.as_mut().expect("tcp link");
        let fence = match link.connect(epoch, dial) {
            Ok(fence) => fence,
            Err(_) => return self.restart_backend(i),
        };
        if fence > epoch {
            return Err(Error::Unavailable(format!(
                "backend {i}: reconnect refused (fence epoch {fence} > controller epoch {epoch})"
            )));
        }
        self.restore_reconnected(i)
    }

    /// The light half of [`reconnect_backend`](Self::reconnect_backend):
    /// backend `i`'s process answered with its store intact, so restore
    /// it to Alive without re-replication. Logs the same restart
    /// markers a full restart would — replaying them re-runs a real
    /// (idempotent) restart, so a recovered controller sees this
    /// backend alive with its data rebuilt.
    fn restore_reconnected(&mut self, i: usize) -> Result<()> {
        self.wal_begin_batch();
        let logged = self
            .log_append(LogRecord::RestartBegin { backend: i })
            .and_then(|()| self.log_append(LogRecord::RestartEnd { backend: i }));
        let flush = self.wal_commit_batch();
        self.backends[i].last_frame = None;
        self.health.restarted(i);
        self.degraded_dirty = true;
        logged?;
        flush?;
        self.maybe_snapshot();
        Ok(())
    }

    /// Compact the log into a snapshot every `every` appends (0
    /// disables; durable controllers default to snapshot-on-demand
    /// only). No-op on a non-durable controller.
    pub fn set_snapshot_every(&mut self, every: u64) {
        if let Some(w) = self.wal.as_mut() {
            w.set_snapshot_every(every);
        }
    }

    /// Crash-point injection for the recovery harness: the `n`th WAL
    /// append completes durably and then fails the controller (every
    /// subsequent operation that must log also fails). No-op on a
    /// non-durable controller.
    pub fn set_wal_crash_after(&mut self, n: u64) {
        if let Some(w) = self.wal.as_mut() {
            w.set_crash_after(n);
        }
    }

    /// True once an armed crash point has fired — the harness's signal
    /// to drop this controller and recover from the log.
    pub fn wal_crashed(&self) -> bool {
        self.wal.as_ref().is_some_and(Wal::crashed)
    }

    /// WAL appends performed by this incarnation (0 when not durable).
    pub fn wal_appends(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::total_appends)
    }

    /// The key allocator's high-water mark (the next key to be issued).
    pub fn key_high_water(&self) -> u64 {
        self.next_key
    }

    /// This controller's epoch (0 unless installed by promotion or
    /// recovered from a post-promotion log).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Directory-memory gauges: live entries, distinct replica-set
    /// groups in use, and the estimated resident bytes.
    pub fn directory_stats(&self) -> (usize, usize, u64) {
        (
            self.directory.len(),
            self.directory.groups_in_use().count(),
            self.directory.estimated_bytes(),
        )
    }

    /// The key-map compression picture (`.stats`): what a flat map
    /// would cost versus the interval-compressed resident bytes.
    pub fn directory_compression(&self) -> crate::directory::CompressionStats {
        self.directory.compression_stats()
    }

    /// Toggle scoped routing (on by default). Off = every request is
    /// broadcast to all serving backends, the pre-router behaviour.
    pub fn set_scoped_routing(&mut self, on: bool) {
        self.scoped_routing = on;
    }

    /// Toggle index-based unique checks (on by default). Off = the
    /// legacy full-cluster retrieve probe before every INSERT. The
    /// index is maintained either way, so the modes can be flipped
    /// mid-run for ablation.
    pub fn set_unique_via_index(&mut self, on: bool) {
        self.unique_via_index = on;
    }

    /// Toggle concurrent replica writes (on by default). Off = one
    /// sequential round trip per replica. Either mode contacts the same
    /// backends in the same scan order.
    pub fn set_parallel_writes(&mut self, on: bool) {
        self.parallel_writes = on;
    }

    /// Toggle read flights in the batch scheduler (on by default).
    /// Off = every read in an admitted batch round-trips solo in
    /// admission order — the pre-flight behaviour and the E20
    /// serial-read baseline. Insert flights are unaffected.
    pub fn set_parallel_reads(&mut self, on: bool) {
        self.parallel_reads = on;
    }

    /// Key-scoped single-backend probes sent, per backend — the
    /// scheduler's point-read load spread. Sums to
    /// [`ExecTotals::read_probes`](abdl::ExecTotals).
    pub fn read_probe_counts(&self) -> &[u64] {
        &self.read_probes_by_backend
    }

    /// A deterministic rendering of the unique-value index, for the
    /// recovery harness: a rebuilt controller must produce exactly the
    /// live controller's digest.
    pub fn unique_index_digest(&self) -> String {
        self.uniques.digest()
    }

    /// Count a newly placed record against its group members' per-file
    /// residency.
    fn resident_add(&mut self, file: &str, members: &[usize]) {
        let n = self.backends.len();
        let counts = self.resident.entry(file.to_owned()).or_insert_with(|| vec![0; n]);
        for &i in members {
            counts[i] += 1;
        }
    }

    /// Un-count a deleted record.
    fn resident_remove(&mut self, file: &str, members: &[usize]) {
        if let Some(counts) = self.resident.get_mut(file) {
            for &i in members {
                counts[i] = counts[i].saturating_sub(1);
            }
        }
    }

    /// Register a constraint group, backfilling the index from existing
    /// records when the file already holds data (constraints are
    /// usually declared before loading, so the backfill broadcast is
    /// rare). Shared by the live path and WAL replay.
    fn register_unique(&mut self, file: &str, attrs: Vec<String>) {
        let Some(gi) = self.uniques.register(file, attrs) else { return };
        let populated =
            self.resident.get(file).is_some_and(|counts| counts.iter().any(|&c| c > 0));
        if !populated {
            return;
        }
        let query = abdl::Query::conjunction(vec![abdl::Predicate::eq(
            abdl::FILE_ATTR,
            abdl::Value::str(file),
        )]);
        if let Ok(resp) = self.broadcast(&Request::retrieve_all(query)) {
            for (key, rec) in resp.into_records() {
                self.uniques.backfill(file, gi, key, &rec);
            }
        }
    }

    /// Append `rec` if this controller is durable. During recovery
    /// replay `wal` is `None`, so replayed operations never re-log.
    fn log_append(&mut self, rec: LogRecord) -> Result<()> {
        match self.wal.as_mut() {
            Some(w) => w.append(&rec),
            None => Ok(()),
        }
    }

    /// Like [`Controller::log_append`] for infallible call sites: the
    /// failure is stashed and surfaced by the next `execute`.
    fn log_append_stashing(&mut self, rec: LogRecord) {
        if let Err(e) = self.log_append(rec) {
            self.pending_error.get_or_insert(e);
        }
    }

    /// Open a WAL group-commit batch (no-op when not durable).
    fn wal_begin_batch(&mut self) {
        if let Some(w) = self.wal.as_mut() {
            w.begin_batch();
        }
    }

    /// Close a WAL batch, flushing its buffered appends with one sync.
    fn wal_commit_batch(&mut self) -> Result<()> {
        match self.wal.as_mut() {
            Some(w) => w.commit_batch(),
            None => Ok(()),
        }
    }

    /// Compact if the snapshot cadence says so. Called only at
    /// top-level operation boundaries — never between a
    /// `restart-begin`/`restart-end` pair, which would truncate the
    /// begin entry while freezing pre-restart state.
    fn maybe_snapshot(&mut self) {
        if self.wal.as_ref().is_some_and(Wal::needs_snapshot) {
            if let Err(e) = self.snapshot_now() {
                self.pending_error.get_or_insert(e);
            }
        }
    }

    /// Write a compacted snapshot now and truncate the log. No-op on a
    /// non-durable controller.
    pub fn snapshot_now(&mut self) -> Result<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        let text = self.snapshot_data()?.to_text();
        self.wal.as_mut().expect("wal present").install_snapshot(&text)
    }

    /// The full compacted state: directory, allocator, rotors,
    /// constraints, dead set, and every record that still has a live
    /// replica (gathered by broadcasting a retrieve per file).
    pub fn snapshot_data(&mut self) -> Result<SnapshotData> {
        // Gather surviving record data first: the broadcasts may detect
        // deaths, and the metadata below must reflect them.
        let mut data: BTreeMap<u64, Record> = BTreeMap::new();
        if self.health.serving_count() > 0 {
            for file in self.files.clone() {
                let query = abdl::Query::conjunction(vec![abdl::Predicate::eq(
                    abdl::FILE_ATTR,
                    abdl::Value::str(file),
                )]);
                let resp = self.broadcast(&Request::retrieve_all(query))?;
                for (key, rec) in resp.into_records() {
                    if self.directory.contains_key(&key) {
                        data.insert(key.0, rec);
                    }
                }
            }
        }
        let mut places: Vec<(u64, Vec<usize>, Option<Record>)> = self
            .directory
            .iter()
            .map(|(k, group)| (k.0, group.to_vec(), data.remove(&k.0)))
            .collect();
        places.sort_by_key(|(k, _, _)| *k);
        let mut uniques: Vec<(String, Vec<String>)> = self
            .uniques
            .groups()
            .iter()
            .flat_map(|(f, groups)| groups.iter().map(|g| (f.clone(), g.clone())))
            .collect();
        uniques.sort();
        Ok(SnapshotData {
            backends: self.backends.len(),
            replication: self.replication,
            next_key: self.next_key,
            dead: self.health.unavailable(),
            draining: self.draining.iter().copied().collect(),
            unwrap: self.unwrapping,
            rotors: self.partitioner.rotors(),
            files: self.files.clone(),
            uniques,
            places,
        })
    }

    /// A deterministic, byte-comparable rendering of the controller's
    /// full logical state (exactly the snapshot text). Two controllers
    /// with equal digests hold the same directory, allocator high-water
    /// mark, rotors, constraints, dead set and surviving records.
    pub fn state_digest(&mut self) -> Result<String> {
        Ok(self.snapshot_data()?.to_text())
    }

    /// Recovery step 1: rebuild state from the snapshot. All backends
    /// are freshly spawned and alive at this point; records are loaded
    /// into their group members, then the dead set is re-killed.
    fn apply_snapshot(&mut self, snap: &SnapshotData) -> Result<()> {
        self.next_key = snap.next_key;
        for file in &snap.files {
            self.try_create_file(file)?;
        }
        for (file, v) in &snap.rotors {
            self.partitioner.set_rotor(file, *v);
        }
        for (file, attrs) in &snap.uniques {
            self.uniques.register(file, attrs.clone());
        }
        let dead: HashSet<usize> = snap.dead.iter().copied().collect();
        for (key, group, record) in &snap.places {
            self.directory.insert(DbKey(*key), group.clone());
            // Records whose data did not survive (no live replica at
            // snapshot time) keep their directory entry but cannot be
            // indexed or counted — no backend holds them, so routing
            // never needs to reach them either.
            let Some(record) = record else { continue };
            if let Some(file) = record.file().map(str::to_owned) {
                self.resident_add(&file, group);
            }
            self.uniques.insert(DbKey(*key), record);
            for &i in group {
                if dead.contains(&i) {
                    continue;
                }
                self.load_replica(i, DbKey(*key), record)?;
            }
        }
        for &i in &snap.dead {
            self.kill_backend(i);
        }
        self.draining = snap.draining.iter().copied().collect();
        self.unwrapping = snap.unwrap;
        self.degraded_dirty = true;
        Ok(())
    }

    /// Recovery step 2: replay one post-snapshot log entry.
    fn apply_entry(&mut self, entry: &LogRecord) -> Result<()> {
        match entry {
            LogRecord::CreateFile { name } => self.try_create_file(name),
            LogRecord::Unique { file, attrs } => {
                self.register_unique(file, attrs.clone());
                Ok(())
            }
            LogRecord::ReserveKey { key } => {
                self.next_key = self.next_key.max(key + 1);
                Ok(())
            }
            LogRecord::Alloc { key, file } => {
                self.next_key = self.next_key.max(key + 1);
                self.partitioner.advance(file);
                Ok(())
            }
            LogRecord::Insert { key, group, record } => {
                self.next_key = self.next_key.max(key + 1);
                // The live insert consumed exactly one rotation.
                if let Some(file) = record.file() {
                    let file = file.to_owned();
                    self.partitioner.advance(&file);
                    self.resident_add(&file, group);
                }
                self.directory.insert(DbKey(*key), group.clone());
                self.uniques.insert(DbKey(*key), record);
                for &i in group {
                    if self.health.is_serving(i) {
                        self.load_replica(i, DbKey(*key), record)?;
                    }
                }
                Ok(())
            }
            LogRecord::Exec { request } => self.execute_inner(request).map(|_| ()),
            LogRecord::Dead { backend } => {
                self.kill_backend(*backend);
                Ok(())
            }
            // Replay performs the whole restart at the begin marker; a
            // missing end marker means the crash hit mid-restart, and
            // re-running the restart is idempotent.
            LogRecord::RestartBegin { backend } => self.restart_backend(*backend),
            LogRecord::RestartEnd { .. } => Ok(()),
            // Same bracket discipline for rebalance moves: the chunk is
            // (re)performed at the begin marker with exactly the keys
            // the live run bracketed — so replay commits placement in
            // the same per-key/retarget sequence the live run did, and
            // an unmatched begin from a crash mid-chunk is safely
            // redone. (`self.wal` is `None` during replay, so the
            // bracket re-logs nothing.)
            LogRecord::MoveBegin { from, to, keys } => {
                let (from, to) = (from.clone(), to.clone());
                let keys: Vec<DbKey> = keys.iter().map(|&k| DbKey(k)).collect();
                self.wal_begin_batch();
                let result = self.move_group_inner(&from, &to, &keys);
                let flush = self.wal_commit_batch();
                result?;
                flush?;
                self.degraded_dirty = true;
                Ok(())
            }
            LogRecord::MoveEnd { .. } => Ok(()),
            LogRecord::AddBackend { backend } => {
                // A snapshot taken after the add already spawned the
                // wider cluster; only grow past the current width.
                if *backend + 1 > self.backends.len() {
                    self.grow_cluster(*backend + 1)?;
                }
                self.unwrapping = true;
                Ok(())
            }
            LogRecord::AddEnd { .. } => {
                self.unwrapping = false;
                Ok(())
            }
            LogRecord::DrainBegin { backend } => {
                self.draining.insert(*backend);
                Ok(())
            }
            LogRecord::DrainEnd { backend } => {
                self.draining.remove(backend);
                self.shutdown_backend(*backend);
                Ok(())
            }
        }
    }

    /// Push one record copy to backend `i` (recovery load path).
    fn load_replica(&mut self, i: usize, key: DbKey, record: &Record) -> Result<()> {
        let seq = self.next_seq();
        if self.send_to(i, seq, BackendOp::InsertWithKey(key, record.clone())) {
            if let Some(result) = self.recv_reply(i, seq) {
                result?;
            }
        }
        Ok(())
    }

    /// Failure injection: kill backend `i`. With replication, its
    /// records stay answerable from the surviving replicas; without, the
    /// partition is unavailable until `restart_backend` (which can then
    /// only recover what other replicas still hold).
    pub fn kill_backend(&mut self, i: usize) {
        if i >= self.backends.len() || !self.health.is_serving(i) {
            return;
        }
        self.shutdown_backend(i);
        self.log_append_stashing(LogRecord::Dead { backend: i });
        self.maybe_snapshot();
    }

    /// The transport half of [`kill_backend`](Self::kill_backend):
    /// stop backend `i`'s worker (thread or process) and mark it dead,
    /// without logging — callers decide whether the death is recorded
    /// as a failure (`dead`) or a retirement (`drain-end`).
    fn shutdown_backend(&mut self, i: usize) {
        if i >= self.backends.len() || !self.health.is_serving(i) {
            return;
        }
        let epoch = self.epoch;
        if self.backends[i].tcp.is_some() {
            let frame = WireOp::Shutdown.into_frame(0, epoch);
            if let Some(link) = self.backends[i].tcp.as_mut() {
                let _ = link.send(&frame);
            }
            self.reap_child(i);
        } else {
            let b = &mut self.backends[i];
            let _ = b.tx.send(Envelope {
                seq: 0,
                epoch,
                reply: b.reply_tx.clone(),
                op: BackendOp::Shutdown,
            });
            if let Some(join) = b.join.take() {
                let _ = join.join();
            }
        }
        self.health.channel_closed(i);
        self.degraded_dirty = true;
    }

    /// Recovery: respawn backend `i` with an empty store, replay the
    /// schema (files), and re-replicate every record whose replica
    /// group contains `i` from the surviving replicas (anti-entropy
    /// driven by the controller's directory). Restores full redundancy:
    /// a subsequent single-backend failure loses nothing again.
    pub fn restart_backend(&mut self, i: usize) -> Result<()> {
        if i >= self.backends.len() {
            return Err(Error::Internal(format!("no such backend {i}")));
        }
        if self.health.is_serving(i) && self.health.state(i) == BackendState::Alive {
            return Ok(());
        }
        // Group commit: the restart's begin/end markers (and any deaths
        // detected along the way) are buffered and synced together. A
        // crash point landing inside the batch still flushes durably
        // through the crashing append, so the per-append sweep holds.
        self.wal_begin_batch();
        let result = self.restart_backend_inner(i);
        let flush = self.wal_commit_batch();
        result?;
        flush?;
        self.maybe_snapshot();
        Ok(())
    }

    /// Finish a restart a crashed primary began but never completed.
    /// The shipped log (and therefore the promoted health board) says
    /// backend `i` is alive, but its worker thread was never respawned:
    /// mark the channel closed so `restart_backend` actually runs, then
    /// redo the restart for real — exactly what cold replay does for an
    /// unmatched `restart-begin` marker.
    pub(crate) fn finish_interrupted_restart(&mut self, i: usize) -> Result<()> {
        self.health.channel_closed(i);
        self.degraded_dirty = true;
        self.restart_backend(i)
    }

    fn restart_backend_inner(&mut self, i: usize) -> Result<()> {
        // WAL protocol: `restart-begin` before any effect, `restart-end`
        // after re-replication completes. Recovery replays the whole
        // restart at the begin marker; an unmatched begin (crash
        // mid-restart) is safely re-run by the caller — restarting an
        // already-alive backend is a no-op.
        self.log_append(LogRecord::RestartBegin { backend: i })?;
        if let Some(shared) = self.net.clone() {
            // Socket transport: retire the old process (best-effort
            // shutdown, then reap) and spawn a fresh one at a new
            // address — the shared table stays current so a standby
            // promotes onto the replacement process.
            if let Some(link) = self.backends[i].tcp.as_mut() {
                let frame = WireOp::Shutdown.into_frame(0, self.epoch);
                let _ = link.send(&frame);
            }
            self.reap_child(i);
            let bp = net::spawn_backend_process(i)?;
            shared.addrs.lock().expect("net addrs lock")[i] = bp.addr;
            if let Some(mut old) =
                shared.children.lock().expect("net children lock")[i].replace(bp.child)
            {
                let _ = old.kill();
                let _ = old.wait();
            }
            let mut link = TcpLink::new(i, bp.addr, self.client_id, Arc::clone(&shared.plan));
            let _ = link.connect(self.epoch, self.reply_timeout);
            self.backends[i].tcp = Some(link);
            self.backends[i].last_frame = None;
            // A respawned process starts with an empty fault plan and a
            // fresh message counter — exactly like a respawned worker
            // thread, except the plan must be re-shipped.
            let plan = self.faults.lock().expect("fault plan lock").clone();
            if !plan.is_empty() {
                self.push_faults_tcp(i, &plan);
            }
        } else {
            // Drop the old handle (closing its channels) and join the
            // dead worker if it has not exited yet.
            let old = std::mem::replace(
                &mut self.backends[i],
                spawn_backend(i, Arc::clone(&self.fence), Arc::clone(&self.faults)),
            );
            // Keep the shared bus current: a standby attached before
            // this restart must promote onto the replacement channel.
            self.bus.lock().expect("bus lock")[i] = self.backends[i].tx.clone();
            let _ = old.tx.send(Envelope {
                seq: 0,
                epoch: self.epoch,
                reply: old.reply_tx.clone(),
                op: BackendOp::Shutdown,
            });
            drop(old.tx);
            if let Some(join) = old.join {
                let _ = join.join();
            }
        }
        self.health.restarted(i);
        self.degraded_dirty = true;

        // Replay the schema.
        for file in self.files.clone() {
            let seq = self.next_seq();
            if !self.send_to(i, seq, BackendOp::CreateFile(file)) {
                return Err(Error::Unavailable(format!("backend {i} died during restart")));
            }
            if self.recv_reply(i, seq).is_none() {
                return Err(Error::Unavailable(format!("backend {i} died during restart")));
            }
        }
        // Anti-entropy: pull surviving copies and re-insert the records
        // this backend is supposed to hold.
        for file in self.files.clone() {
            let query = abdl::Query::conjunction(vec![abdl::Predicate::eq(
                abdl::FILE_ATTR,
                abdl::Value::str(file),
            )]);
            let survivors = self.broadcast(&Request::retrieve_all(query))?;
            for (key, rec) in survivors.into_records() {
                if self.directory.get(&key).is_some_and(|g| g.contains(&i)) {
                    let seq = self.next_seq();
                    if !self.send_to(i, seq, BackendOp::InsertWithKey(key, rec)) {
                        return Err(Error::Unavailable(format!("backend {i} died during recovery")));
                    }
                    match self.recv_reply(i, seq) {
                        Some(result) => {
                            result?;
                        }
                        None => {
                            return Err(Error::Unavailable(format!(
                                "backend {i} died during recovery"
                            )))
                        }
                    }
                }
            }
        }
        self.log_append(LogRecord::RestartEnd { backend: i })
    }

    // --- Elastic membership: online backend add / drain -------------

    /// True when no membership change is in flight.
    fn rebalance_idle(&self) -> bool {
        self.rebalancer.is_idle() && !self.unwrapping && self.draining.is_empty()
    }

    /// Group moves still queued (0 = the cluster is in its goal
    /// placement).
    pub fn rebalance_pending(&self) -> usize {
        self.rebalancer.pending()
    }

    /// Bound the group moves piggybacked on each foreground request
    /// (floored at 1) — the knob experiment E21 sweeps.
    pub fn set_rebalance_throttle(&mut self, throttle: usize) {
        self.rebalancer.set_throttle(throttle);
    }

    /// Bound the records relocated per move bracket (floored at 1).
    /// Together with the throttle this caps the work a pump step can
    /// piggyback on one foreground request at
    /// O(throttle × chunk) records.
    pub fn set_move_chunk(&mut self, chunk: usize) {
        self.move_chunk = chunk.max(1);
    }

    /// Backends currently being drained, ascending.
    pub fn draining_backends(&self) -> Vec<usize> {
        self.draining.iter().copied().collect()
    }

    /// Add one backend to the live cluster and rebalance onto it
    /// online: the new worker (thread, or `mbds-backend` process over
    /// the socket transport) joins immediately for *new* placements,
    /// and the wrapped replica groups of the old ring are moved onto
    /// the widened ring by WAL-bracketed group moves worked off a
    /// throttled queue between foreground requests. Returns the new
    /// backend's index.
    ///
    /// Refused while another membership change is still rebalancing.
    pub fn add_backend(&mut self) -> Result<usize> {
        if !self.rebalance_idle() {
            return Err(Error::Unavailable(
                "a rebalance is already in progress; finish it before another membership change"
                    .into(),
            ));
        }
        let i = self.backends.len();
        // Durable goal first (the `restart-begin` discipline): a crash
        // anywhere past this append recovers into the widened cluster
        // and re-plans the remaining moves.
        self.log_append(LogRecord::AddBackend { backend: i })?;
        self.grow_cluster(i + 1)?;
        self.unwrapping = true;
        self.replan_add(i);
        self.maybe_snapshot();
        Ok(i)
    }

    /// Drain backend `i` out of the cluster online: it stops receiving
    /// new placements immediately, every replica group containing it is
    /// moved to a substitute backend by WAL-bracketed group moves
    /// worked off the throttled queue, and when the last move commits
    /// the backend is retired (`drain-end`, then shutdown). Reads keep
    /// being served — from the old placement until each move commits,
    /// from the new one after.
    ///
    /// Refused when it would leave fewer serving backends than the
    /// replication factor, or while another membership change is still
    /// rebalancing. Re-draining an already-draining backend is a no-op
    /// (recovery re-plans the remaining moves itself).
    pub fn drain_backend(&mut self, i: usize) -> Result<()> {
        if i >= self.backends.len() {
            return Err(Error::Internal(format!("no such backend {i}")));
        }
        if self.draining.contains(&i) {
            return Ok(());
        }
        if !self.health.is_serving(i) {
            return Err(Error::Unavailable(format!("backend {i} is not serving")));
        }
        if !self.rebalance_idle() {
            return Err(Error::Unavailable(
                "a rebalance is already in progress; finish it before another membership change"
                    .into(),
            ));
        }
        if self.health.serving_count() <= self.replication {
            return Err(Error::Unavailable(format!(
                "draining backend {i} would leave fewer serving backends than replication {}",
                self.replication
            )));
        }
        self.log_append(LogRecord::DrainBegin { backend: i })?;
        self.draining.insert(i);
        self.replan_drain(i);
        self.maybe_snapshot();
        Ok(())
    }

    /// Perform one queued rebalance job (one move *chunk*, or a finish
    /// marker). `Ok(true)` = a job ran; `Ok(false)` = the queue is
    /// empty. A move with chunks still to go — and any failed job —
    /// goes back to the *front* of the queue, so a `FinishAdd` /
    /// `FinishDrain` marker can never overtake the moves it commits.
    /// Planning is state-based, so retrying a failed job later is
    /// always safe.
    pub fn rebalance_step(&mut self) -> Result<bool> {
        let Some(job) = self.rebalancer.pop() else { return Ok(false) };
        let result = match &job {
            MoveJob::Move { from, to } => {
                let (from, to) = (from.clone(), to.clone());
                self.move_group(&from, &to).map(|done| !done)
            }
            MoveJob::FinishAdd { backend } => self.finish_add(*backend).map(|()| false),
            MoveJob::FinishDrain { backend } => self.finish_drain(*backend).map(|()| false),
        };
        match result {
            Ok(more_chunks) => {
                if more_chunks {
                    self.rebalancer.requeue(job);
                }
                Ok(true)
            }
            Err(e) => {
                self.rebalancer.requeue(job);
                Err(e)
            }
        }
    }

    /// Drain the rebalance queue synchronously — the blocking endgame
    /// of [`add_backend`](Self::add_backend) /
    /// [`drain_backend`](Self::drain_backend) when the caller wants the
    /// goal placement *now* instead of amortized over foreground
    /// traffic.
    pub fn finish_rebalance(&mut self) -> Result<()> {
        while self.rebalance_step()? {}
        self.maybe_snapshot();
        Ok(())
    }

    /// Work off up to `throttle` queued jobs behind a foreground
    /// request; an error is stashed for the next `execute` (the job
    /// stays queued).
    fn pump_rebalance(&mut self) {
        for _ in 0..self.rebalancer.throttle() {
            match self.rebalance_step() {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    self.pending_error.get_or_insert(e);
                    break;
                }
            }
        }
    }

    /// Spawn backends until the cluster is `new_n` wide, growing every
    /// per-backend structure alongside (health board, placement ring,
    /// residency vectors, probe counters, shared bus/process tables).
    /// The new store replays the schema so later record loads land in
    /// existing files.
    fn grow_cluster(&mut self, new_n: usize) -> Result<()> {
        while self.backends.len() < new_n {
            self.spawn_join_backend()?;
            self.partitioner.grow(self.backends.len());
            for counts in self.resident.values_mut() {
                counts.push(0);
            }
        }
        Ok(())
    }

    /// Spawn backends until the cluster matches the width a standby's
    /// mirror reached — promotion's membership reconciliation. An
    /// `add-backend` record can ship while the primary dies before
    /// spawning the worker, leaving the shared bus one slot short; the
    /// mirror's placement ring and residency vectors already account
    /// for the backend (and no move can have landed data on it — the
    /// crash preceded the spawn), so only the worker itself is missing.
    pub(crate) fn adopt_missing_backends(&mut self, target: usize) -> Result<()> {
        while self.backends.len() < target {
            self.spawn_join_backend()?;
        }
        Ok(())
    }

    /// The transport half of [`grow_cluster`](Self::grow_cluster):
    /// spawn worker `backends.len()` (thread, or `mbds-backend`
    /// process on the socket transport), wire it onto the shared bus
    /// and process tables, grow the health board and probe counters,
    /// and replay the schema into its empty store. Leaves the
    /// placement ring and residency vectors alone — callers widening
    /// the ring grow those; promotion inherits them from the mirror.
    fn spawn_join_backend(&mut self) -> Result<()> {
        {
            let i = self.backends.len();
            if let Some(shared) = self.net.clone() {
                let bp = net::spawn_backend_process(i)?;
                let mut link = TcpLink::new(i, bp.addr, self.client_id, Arc::clone(&shared.plan));
                link.connect(self.epoch, self.reply_timeout).map_err(|e| {
                    Error::Internal(format!(
                        "added backend {i} at {} refused the handshake: {e:?}",
                        bp.addr
                    ))
                })?;
                shared.addrs.lock().expect("net addrs lock").push(bp.addr);
                shared.children.lock().expect("net children lock").push(Some(bp.child));
                let (tx, _) = channel::<Envelope>();
                let (reply_tx, rx) = channel::<Reply>();
                self.backends.push(BackendHandle {
                    tx,
                    rx,
                    reply_tx,
                    join: None,
                    tcp: Some(link),
                    last_frame: None,
                });
                self.bus.lock().expect("bus lock").push(self.backends[i].tx.clone());
                let plan = self.faults.lock().expect("fault plan lock").clone();
                if !plan.is_empty() {
                    self.push_faults_tcp(i, &plan);
                }
            } else {
                let handle = spawn_backend(i, Arc::clone(&self.fence), Arc::clone(&self.faults));
                self.bus.lock().expect("bus lock").push(handle.tx.clone());
                self.backends.push(handle);
            }
            self.health.grow();
            self.read_probes_by_backend.push(0);
            for file in self.files.clone() {
                let seq = self.next_seq();
                if !self.send_to(i, seq, BackendOp::CreateFile(file)) {
                    return Err(Error::Unavailable(format!("backend {i} died while joining")));
                }
                if self.recv_reply(i, seq).is_none() {
                    return Err(Error::Unavailable(format!("backend {i} died while joining")));
                }
            }
            self.degraded_dirty = true;
        }
        Ok(())
    }

    /// Queue the unwrap moves for the add of backend `added` plus the
    /// `add-end` marker. Pure in the directory state — see
    /// [`rebalance::plan_unwrap`].
    fn replan_add(&mut self, added: usize) {
        let new_n = self.backends.len();
        let moves = rebalance::plan_unwrap(
            self.directory.groups_in_use().map(|g| g.to_vec()),
            added,
            new_n,
        );
        for (from, to) in moves {
            self.rebalancer.push(MoveJob::Move { from, to });
        }
        self.rebalancer.push(MoveJob::FinishAdd { backend: new_n - 1 });
    }

    /// Queue the moves that vacate draining backend `i` plus the
    /// `drain-end` marker. Pure in the directory state — see
    /// [`rebalance::plan_drain`].
    fn replan_drain(&mut self, i: usize) {
        let n = self.backends.len();
        let health = &self.health;
        let draining = &self.draining;
        let moves = rebalance::plan_drain(
            self.directory.groups_in_use().map(|g| g.to_vec()),
            i,
            n,
            |b| health.is_serving(b) && !draining.contains(&b),
        );
        for (from, to) in moves {
            self.rebalancer.push(MoveJob::Move { from, to });
        }
        self.rebalancer.push(MoveJob::FinishDrain { backend: i });
    }

    /// Re-derive the whole rebalance queue from durable state — called
    /// after recovery replay and after standby promotion. Moves that
    /// committed before the crash no longer match the planners'
    /// predicates and drop out; the rest are re-queued.
    pub(crate) fn replan_rebalance(&mut self) {
        self.rebalancer.clear();
        let n = self.backends.len();
        if self.unwrapping && n > 1 {
            self.replan_add(n - 1);
        }
        let draining: Vec<usize> = self.draining.iter().copied().collect();
        for i in draining {
            self.replan_drain(i);
        }
    }

    /// Finish a move chunk a crashed primary began but never committed
    /// (the standby's unmatched `move-begin`) — promotion's analogue of
    /// [`finish_interrupted_restart`](Self::finish_interrupted_restart).
    ///
    /// The standby's mirror applies the chunk at the begin marker, so
    /// the promoted directory already routes the chunk's keys to `to`
    /// while the physical copy on the real backends was interrupted
    /// partway. Redo exactly those keys under a fresh WAL bracket,
    /// pulling from the old members as extra sources — idempotent
    /// against any intermediate state the crash left behind. Chunks the
    /// crashed primary never began are *not* healed here: the group
    /// still matches the state-based plan and `replan_rebalance`
    /// requeues the rest of the move.
    pub(crate) fn finish_interrupted_move(
        &mut self,
        from: &[usize],
        to: &[usize],
        keys: &[u64],
    ) -> Result<()> {
        if keys.is_empty() {
            return Ok(());
        }
        let keys: Vec<DbKey> = keys.iter().map(|&k| DbKey(k)).collect();
        self.wal_begin_batch();
        let result = self.heal_move_inner(from, to, &keys);
        let flush = self.wal_commit_batch();
        result?;
        flush?;
        self.degraded_dirty = true;
        Ok(())
    }

    /// The forced-redo body of
    /// [`finish_interrupted_move`](Self::finish_interrupted_move): the
    /// directory already routes the chunk to `to`, but new members may
    /// hold only part of the data and abandoned members still hold
    /// stale copies. Residency and the placement commit came over warm
    /// from the mirror, so only the physical copy and delete are
    /// redone.
    fn heal_move_inner(&mut self, from: &[usize], to: &[usize], keys: &[DbKey]) -> Result<()> {
        self.log_append(LogRecord::MoveBegin {
            from: from.to_vec(),
            to: to.to_vec(),
            keys: keys.iter().map(|k| k.0).collect(),
        })?;
        let removed: Vec<usize> = from.iter().copied().filter(|m| !to.contains(m)).collect();
        // Any member of either group may hold the only surviving copy.
        let mut sources: Vec<usize> = from
            .iter()
            .chain(to.iter())
            .copied()
            .filter(|&m| self.health.is_serving(m))
            .collect();
        sources.sort_unstable();
        sources.dedup();
        let moved = self.fetch_records(&sources, keys)?;
        for (key, rec) in &moved {
            let bytes = rec.to_string().len() as u64;
            for &m in to {
                if !self.health.is_serving(m) {
                    continue;
                }
                self.load_replica(m, *key, rec)?;
                self.totals.move_bytes += bytes;
            }
        }
        if !removed.is_empty() {
            let seq = self.next_seq();
            let mut sent = Vec::new();
            for &m in &removed {
                if self.health.is_serving(m)
                    && self.send_to(m, seq, BackendOp::DeleteKeys(keys.to_vec()))
                {
                    sent.push(m);
                }
            }
            for m in sent {
                let _ = self.recv_reply(m, seq);
            }
        }
        // Usually a no-op (the mirror already committed the chunk);
        // kept so the bracket converges from either directory shape.
        self.commit_chunk_placement(from, to, keys);
        self.log_append(LogRecord::MoveEnd { from: from.to_vec(), to: to.to_vec() })
    }

    /// Relocate one *chunk* (up to `move_chunk` records) of replica
    /// group `from` to `to`: the unit of online rebalance.
    /// WAL-bracketed (`move-begin` … `move-end` in one group commit)
    /// and idempotent — replaying the bracket against any intermediate
    /// state converges to the same placement, and a `from` group
    /// nothing points at is a silent no-op. Returns `Ok(true)` when the
    /// group is fully vacated, `Ok(false)` when more chunks remain (the
    /// caller requeues the move at the *front* of the queue).
    ///
    /// Reads are never served from a half-moved chunk: the directory
    /// commit is the *last* effect before the end marker, so routing
    /// answers from the old (complete) placement during the copy and
    /// from the new (complete) placement after — per key for mid-group
    /// chunks, per group for the final one.
    fn move_group(&mut self, from: &[usize], to: &[usize]) -> Result<bool> {
        // The group's key list is scanned once and cursored across
        // chunks — rescanning the whole directory per chunk would put
        // an O(keys) walk behind every foreground request. Keys the
        // cursor hands back are re-validated against the live directory
        // (a foreground delete may have unbound them since the scan).
        let mut pending = match self.move_cursor.take() {
            Some((group, pending)) if group == from => pending,
            _ => self.directory.keys_of_group(from),
        };
        let mut keys = Vec::with_capacity(self.move_chunk.min(pending.len()));
        let mut consumed = 0;
        for key in &pending {
            if keys.len() == self.move_chunk {
                break;
            }
            consumed += 1;
            if self.directory.get(key).is_some_and(|g| g == from) {
                keys.push(*key);
            }
        }
        pending.drain(..consumed);
        if keys.is_empty() {
            return Ok(true);
        }
        self.wal_begin_batch();
        let result = self.move_group_inner(from, to, &keys);
        let flush = self.wal_commit_batch();
        // On failure the cursor stays cleared: the retry rescans, so
        // the chunk drained above is not lost.
        result?;
        flush?;
        self.degraded_dirty = true;
        // Foreground inserts may have bound fresh keys to the group
        // after the scan; the refcount check catches them (the next
        // step rescans), where trusting the cursor would strand them.
        let done = pending.is_empty() && self.directory.group_live_entries(from) == 0;
        if !pending.is_empty() {
            self.move_cursor = Some((from.to_vec(), pending));
        }
        Ok(done)
    }

    fn move_group_inner(&mut self, from: &[usize], to: &[usize], keys: &[DbKey]) -> Result<()> {
        self.log_append(LogRecord::MoveBegin {
            from: from.to_vec(),
            to: to.to_vec(),
            keys: keys.iter().map(|k| k.0).collect(),
        })?;
        let added: Vec<usize> = to.iter().copied().filter(|m| !from.contains(m)).collect();
        let removed: Vec<usize> = from.iter().copied().filter(|m| !to.contains(m)).collect();
        // Pull one surviving copy of each chunk record from the group's
        // serving members — key-scoped, so a chunk costs O(chunk) at
        // the backends, never a file scan.
        let sources: Vec<usize> =
            from.iter().copied().filter(|&m| self.health.is_serving(m)).collect();
        let moved = self.fetch_records(&sources, keys)?;
        // Copy to the members the move adds — pipelined: every insert
        // of the chunk is in flight before the first ack is awaited,
        // so a chunk costs one reply round instead of one per record …
        let mut acks: Vec<(usize, u64)> = Vec::new();
        for (key, rec) in &moved {
            let bytes = rec.to_string().len() as u64;
            for &m in &added {
                if !self.health.is_serving(m) {
                    continue;
                }
                let seq = self.next_seq();
                if self.send_to(m, seq, BackendOp::InsertWithKey(*key, rec.clone())) {
                    acks.push((m, seq));
                }
                self.totals.move_bytes += bytes;
            }
            if let Some(file) = rec.file().map(str::to_owned) {
                self.resident_add(&file, &added);
                self.resident_remove(&file, &removed);
            }
        }
        for (m, seq) in acks {
            if let Some(result) = self.recv_reply(m, seq) {
                result?;
            }
        }
        // … physically remove from the members it abandons (a stale
        // copy would be resurrected by the next broadcast read) …
        if !removed.is_empty() {
            let seq = self.next_seq();
            let mut sent = Vec::new();
            for &m in &removed {
                if self.health.is_serving(m)
                    && self.send_to(m, seq, BackendOp::DeleteKeys(keys.to_vec()))
                {
                    sent.push(m);
                }
            }
            for m in sent {
                let _ = self.recv_reply(m, seq);
            }
        }
        // … and only then commit the new placement: reads routed before
        // this line saw the complete old group, reads after see the
        // complete new one.
        self.commit_chunk_placement(from, to, keys);
        self.log_append(LogRecord::MoveEnd { from: from.to_vec(), to: to.to_vec() })
    }

    /// Commit a chunk's placement switch: per-key rebinds while the
    /// group still holds keys outside the chunk, a whole-group retarget
    /// when this chunk empties it. Every redo path — live move, cold
    /// replay, the standby mirror, promotion heal — commits through
    /// here, so they all converge on byte-identical directory state.
    fn commit_chunk_placement(&mut self, from: &[usize], to: &[usize], keys: &[DbKey]) {
        // "Does the group hold keys beyond this chunk?" via the interned
        // refcounts — O(chunk), where comparing key lists would rescan
        // the whole directory on every bracket.
        let live_in_chunk =
            keys.iter().filter(|k| self.directory.get(k).is_some_and(|g| g == from)).count();
        let remaining = self.directory.group_live_entries(from) > live_in_chunk as u64;
        if remaining {
            for key in keys {
                self.directory.insert(*key, to.to_vec());
            }
        } else if self.directory.retarget(from, to.to_vec()) > 0 {
            self.totals.groups_moved += 1;
        }
    }

    /// Fetch exactly `keys` from `sources`, keeping the first copy of
    /// each key that answers — the key-scoped read under group moves
    /// and promotion heals. Backend errors propagate (the move is
    /// requeued and retried); a dead source simply contributes nothing,
    /// as with `send_round`.
    fn fetch_records(
        &mut self,
        sources: &[usize],
        keys: &[DbKey],
    ) -> Result<Vec<(DbKey, Record)>> {
        let seq = self.next_seq();
        let mut sent = Vec::new();
        for &m in sources {
            if self.send_to(m, seq, BackendOp::FetchKeys(keys.to_vec())) {
                sent.push(m);
            }
        }
        let mut by_key: BTreeMap<DbKey, Record> = BTreeMap::new();
        let mut first_err = None;
        for m in sent {
            match self.recv_reply(m, seq) {
                Some(Ok(resp)) => {
                    for (key, rec) in resp.into_records() {
                        by_key.entry(key).or_insert(rec);
                    }
                }
                Some(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                None => {}
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(by_key.into_iter().collect()),
        }
    }

    /// Commit an online add: every unwrap move is done.
    fn finish_add(&mut self, backend: usize) -> Result<()> {
        self.log_append(LogRecord::AddEnd { backend })?;
        self.unwrapping = false;
        Ok(())
    }

    /// Retire a drained backend: every group containing it has moved
    /// off, so shut it down. `drain-end` (not `dead`) records the
    /// retirement — the store it takes down holds no current replica.
    fn finish_drain(&mut self, backend: usize) -> Result<()> {
        self.log_append(LogRecord::DrainEnd { backend })?;
        self.draining.remove(&backend);
        self.shutdown_backend(backend);
        Ok(())
    }

    /// A deterministic rendering of the controller's *logical* contents
    /// — allocator high-water mark, schema, constraints and records —
    /// with all placement detail (groups, rotors, dead set, membership)
    /// stripped. Two clusters of different shapes holding the same data
    /// produce equal logical digests; this is what the elastic-vs-static
    /// acceptance check compares.
    pub fn logical_digest(&mut self) -> Result<String> {
        let snap = self.snapshot_data()?;
        Ok(logical_digest_of(&snap))
    }

    /// Fallible file creation: sends the create through the health
    /// machine and fails only when *no* backend acknowledged it.
    /// Backends that die mid-create are marked dead; a later
    /// `restart_backend` replays the schema into them, so live stores
    /// never diverge.
    pub fn try_create_file(&mut self, name: &str) -> Result<()> {
        if !self.files.iter().any(|f| f == name) {
            self.files.push(name.to_owned());
        }
        let seq = self.next_seq();
        let mut sent = Vec::new();
        for i in 0..self.backends.len() {
            if self.health.is_serving(i)
                && self.send_to(i, seq, BackendOp::CreateFile(name.to_owned()))
            {
                sent.push(i);
            }
        }
        let mut acked = 0usize;
        for i in sent {
            if self.recv_reply(i, seq).is_some() {
                acked += 1;
            }
        }
        if acked == 0 {
            return Err(Error::Unavailable(format!(
                "no live backend acknowledged CREATE FILE `{name}`"
            )));
        }
        self.log_append(LogRecord::CreateFile { name: name.to_owned() })?;
        self.maybe_snapshot();
        Ok(())
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// A death was detected mid-operation (closed channel or missed
    /// reply windows): record it durably so recovery replays the same
    /// alive set the live run saw.
    fn note_dead(&mut self, i: usize) {
        self.degraded_dirty = true;
        self.log_append_stashing(LogRecord::Dead { backend: i });
    }

    /// Send an operation to backend `i`; a closed channel (or an
    /// unreachable process) marks it dead. The envelope carries this
    /// controller's epoch and a clone of its reply sender.
    fn send_to(&mut self, i: usize, seq: u64, op: BackendOp) -> bool {
        self.totals.messages_sent += 1;
        if self.backends[i].tcp.is_some() {
            return self.send_to_tcp(i, seq, op);
        }
        let env = Envelope {
            seq,
            epoch: self.epoch,
            reply: self.backends[i].reply_tx.clone(),
            op,
        };
        if self.backends[i].tx.send(env).is_err() {
            self.health.channel_closed(i);
            self.note_dead(i);
            return false;
        }
        true
    }

    /// The wire frame for one backend operation.
    fn op_frame(op: BackendOp, seq: u64, epoch: u64) -> Frame {
        match op {
            BackendOp::CreateFile(name) => WireOp::CreateFile(name),
            BackendOp::InsertWithKey(key, record) => WireOp::InsertWithKey(key, record),
            BackendOp::Exec(request) => WireOp::Exec(request),
            BackendOp::DeleteKeys(keys) => WireOp::DeleteKeys(keys),
            BackendOp::FetchKeys(keys) => WireOp::FetchKeys(keys),
            BackendOp::Shutdown => WireOp::Shutdown,
        }
        .into_frame(seq, epoch)
    }

    /// Socket-transport send: write the frame, re-dialing once if the
    /// connection is gone (connection re-establishment is part of the
    /// transport's manners — only a failed re-dial demotes the
    /// backend). The frame is stashed for retransmission.
    fn send_to_tcp(&mut self, i: usize, seq: u64, op: BackendOp) -> bool {
        let frame = Controller::op_frame(op, seq, self.epoch);
        let epoch = self.epoch;
        let dial = self.reply_timeout;
        let link = self.backends[i].tcp.as_mut().expect("tcp link");
        let sent = match link.send(&frame) {
            Ok(()) => true,
            Err(_) => link.connect(epoch, dial).is_ok() && link.send(&frame).is_ok(),
        };
        if sent {
            self.backends[i].last_frame = Some(frame);
            return true;
        }
        self.health.channel_closed(i);
        self.note_dead(i);
        false
    }

    /// Await backend `i`'s reply to `seq`. Stale replies (from earlier
    /// rounds that timed out) are discarded; a missed window demotes
    /// the backend one step and `Suspect` earns one more window.
    /// Returns `None` when the backend is (now) dead.
    fn recv_reply(&mut self, i: usize, seq: u64) -> Option<Result<Response>> {
        if self.backends[i].tcp.is_some() {
            return self.recv_reply_tcp(i, seq);
        }
        loop {
            match self.backends[i].rx.recv_timeout(self.reply_timeout) {
                Ok(reply) if reply.seq == seq => {
                    self.health.reply_received(i);
                    return Some(reply.result);
                }
                Ok(_) => continue, // stale reply from a timed-out round
                Err(RecvTimeoutError::Timeout) => {
                    self.totals.reply_timeouts += 1;
                    match self.health.missed_reply(i) {
                        BackendState::Suspect => continue,
                        _ => {
                            self.note_dead(i);
                            return None;
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.health.channel_closed(i);
                    self.note_dead(i);
                    return None;
                }
            }
        }
    }

    /// Socket-transport reply wait: the same health-window discipline
    /// as the channel bus, but each window is subdivided into
    /// bounded-exponential retransmission sub-waits — a dropped frame
    /// is usually recovered by a retry *inside* the window, so the
    /// health board only sees losses the retry budget could not hide.
    fn recv_reply_tcp(&mut self, i: usize, seq: u64) -> Option<Result<Response>> {
        loop {
            match self.await_window_tcp(i, seq) {
                Ok(Some(result)) => {
                    self.health.reply_received(i);
                    return Some(result);
                }
                Ok(None) => {
                    self.totals.reply_timeouts += 1;
                    match self.health.missed_reply(i) {
                        BackendState::Suspect => continue,
                        _ => {
                            self.note_dead(i);
                            return None;
                        }
                    }
                }
                Err(()) => {
                    self.health.channel_closed(i);
                    self.note_dead(i);
                    return None;
                }
            }
        }
    }

    /// One reply window over the socket. The window is split into
    /// `retry_budget + 1` sub-waits with doubling lengths (1, 2, 4, …
    /// shares of the window); each expiry retransmits the stashed
    /// frame — idempotent request ids make that safe — and counts into
    /// `retries`/`backoff_ms`. `Ok(None)` = window exhausted (a health
    /// strike); `Err(())` = connection lost and not re-establishable.
    fn await_window_tcp(
        &mut self,
        i: usize,
        seq: u64,
    ) -> std::result::Result<Option<Result<Response>>, ()> {
        let window = self.reply_timeout;
        let budget = self.retry_budget;
        let shares = (1u32 << (budget + 1)).saturating_sub(1).max(1);
        let mut sub = (window / shares).max(Duration::from_millis(1));
        let deadline = Instant::now() + window;
        let mut attempt = 0u32;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            let wait = sub.min(left);
            let link = self.backends[i].tcp.as_mut().expect("tcp link");
            match link.recv(wait) {
                Ok(Some(frame)) => {
                    if frame.seq != seq
                        || (frame.kind != kind::REPLY_OK && frame.kind != kind::REPLY_ERR)
                    {
                        continue; // stale round, duplicate, or probe ack
                    }
                    return Ok(Some(match WireReply::from_frame(&frame) {
                        Ok(WireReply::Ok(resp)) => Ok(resp),
                        Ok(WireReply::Err(e)) => Err(e),
                        _ => Err(Error::Internal("wire: undecodable reply frame".into())),
                    }));
                }
                Ok(None) => {
                    if attempt >= budget {
                        return Ok(None);
                    }
                    attempt += 1;
                    self.totals.retries += 1;
                    self.totals.backoff_ms += wait.as_millis() as u64;
                    if !self.retransmit(i) {
                        return Err(());
                    }
                    sub = sub.saturating_mul(2);
                }
                Err(_) => {
                    // Connection lost mid-wait: re-dial once and resend.
                    let epoch = self.epoch;
                    let link = self.backends[i].tcp.as_mut().expect("tcp link");
                    if link.connect(epoch, wait.max(Duration::from_millis(20))).is_err() {
                        return Err(());
                    }
                    self.totals.retries += 1;
                    if !self.retransmit(i) {
                        return Err(());
                    }
                }
            }
        }
    }

    /// Resend the stashed frame on backend `i`'s link, re-dialing once
    /// if the write fails.
    fn retransmit(&mut self, i: usize) -> bool {
        let Some(frame) = self.backends[i].last_frame.clone() else { return true };
        let epoch = self.epoch;
        let dial = self.reply_timeout;
        let link = self.backends[i].tcp.as_mut().expect("tcp link");
        match link.send(&frame) {
            Ok(()) => true,
            Err(_) => link.connect(epoch, dial).is_ok() && link.send(&frame).is_ok(),
        }
    }

    /// Broadcast a request to every serving backend — the unscoped
    /// [`Controller::send_round`].
    fn broadcast(&mut self, request: &Request) -> Result<Response> {
        self.send_round(request, None)
    }

    /// Send a request to one round of backends (`None` = every serving
    /// backend, the broadcast path; `Some` = a routed subset), merge
    /// and dedup the partial responses, and retry-tolerate failures: a
    /// backend dying mid-round only removes its partial answer (the
    /// merged result stays correct as long as each record has a live
    /// replica, which `degraded` reports). All in-flight replies are
    /// drained before any error is returned, so the per-backend reply
    /// queues never desynchronize. An empty routed target set answers
    /// immediately with an empty response — exactly what a broadcast
    /// would have merged.
    fn send_round(&mut self, request: &Request, targets: Option<&[usize]>) -> Result<Response> {
        if targets.is_some() && self.health.serving_count() == 0 {
            return Err(Error::Unavailable("no live backends".into()));
        }
        let seq = self.next_seq();
        let mut sent = Vec::new();
        match targets {
            None => {
                for i in 0..self.backends.len() {
                    if self.health.is_serving(i)
                        && self.send_to(i, seq, BackendOp::Exec(request.clone()))
                    {
                        sent.push(i);
                    }
                }
                if sent.is_empty() {
                    return Err(Error::Unavailable("no live backends".into()));
                }
            }
            Some(targets) => {
                for &i in targets {
                    if self.health.is_serving(i)
                        && self.send_to(i, seq, BackendOp::Exec(request.clone()))
                    {
                        sent.push(i);
                    }
                }
            }
        }
        let mut merged = Response::default();
        let mut first_err = None;
        for i in sent {
            match self.recv_reply(i, seq) {
                Some(Ok(resp)) => merged.merge(resp),
                // Keep draining the other backends' replies even after
                // an error — bailing early would leave stale replies
                // desynchronizing the next round.
                Some(Err(e)) if first_err.is_none() => first_err = Some(e),
                Some(Err(_)) => {}
                None => {} // dead mid-round; survivors carry the answer
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        merged.dedup_by_key();
        Ok(merged)
    }

    /// The backends worth contacting for `query`: the union, over its
    /// disjuncts, of either (a) the replica groups of the keys a fully
    /// pinned unique group names (key-scoped), or (b) the backends the
    /// directory says hold records of the disjunct's file. `None` means
    /// the query cannot be scoped (routing disabled, or some disjunct
    /// names no file) and the caller must broadcast.
    fn route_targets(&self, query: &abdl::Query) -> Option<Vec<usize>> {
        if !self.scoped_routing {
            return None;
        }
        let mut targets = BTreeSet::new();
        for conj in &query.disjuncts {
            let file = conj.file()?;
            if let Some(keys) = self.uniques.candidates(file, conj) {
                for k in keys {
                    if let Some(group) = self.directory.get(&k) {
                        targets.extend(group.iter().copied());
                    }
                }
            } else if let Some(counts) = self.resident.get(file) {
                targets.extend(
                    counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(i, _)| i),
                );
            }
            // A file nobody holds contributes no targets.
        }
        Some(targets.into_iter().collect())
    }

    /// Attach health metadata to an outgoing response.
    fn finalize(&mut self, mut resp: Response) -> Response {
        resp.degraded = self.is_degraded();
        resp.unavailable_backends = self.health.unavailable();
        resp
    }

    /// True when some record's whole replica group is dead.
    fn is_degraded(&mut self) -> bool {
        if self.degraded_dirty {
            self.degraded_cache = self.compute_degraded();
            self.degraded_dirty = false;
        }
        self.degraded_cache
    }

    fn compute_degraded(&self) -> bool {
        let dead: Vec<bool> =
            (0..self.backends.len()).map(|i| !self.health.is_serving(i)).collect();
        // Interned groups make this O(distinct replica sets), not
        // O(records): a group is degraded iff its every member is dead.
        self.directory.groups_in_use().any(|group| group.iter().all(|&r| dead[r]))
    }

    /// The records currently matching `query`, deduplicated across
    /// replicas — the *logical* affected set of a mutation, with the
    /// pre-images the index maintenance needs.
    fn matching_records(
        &mut self,
        query: &abdl::Query,
        targets: Option<&[usize]>,
    ) -> Result<Vec<(DbKey, Record)>> {
        let resp = self.send_round(&Request::retrieve_all(query.clone()), targets)?;
        Ok(resp.into_records())
    }

    fn check_unique(&mut self, record: &Record) -> Result<()> {
        let Some(file) = record.file() else {
            return Err(Error::MissingFileKeyword);
        };
        if self.unique_via_index {
            // Every insert flows through this controller, so the index
            // is exact: one map lookup replaces a full-cluster retrieve
            // probe (and, unlike the probe, still sees records whose
            // replicas are all currently down).
            return match self.uniques.conflict(record) {
                Some(group) => {
                    Err(Error::DuplicateKey { file: file.to_owned(), attrs: group.to_vec() })
                }
                None => Ok(()),
            };
        }
        // Legacy pre-insert broadcast probe (the E15 ablation baseline).
        for (group, query) in self.uniques.probes(record) {
            if !self.broadcast(&Request::retrieve_all(query))?.records().is_empty() {
                return Err(Error::DuplicateKey { file: file.to_owned(), attrs: group });
            }
        }
        Ok(())
    }

    /// Allocate a key for an internal insert. Unlike the public
    /// `reserve_key`, this is *not* logged on its own — the insert's
    /// `Insert` (or `Alloc`) WAL entry carries the key.
    fn alloc_key(&mut self) -> DbKey {
        let key = DbKey(self.next_key);
        self.next_key += 1;
        key
    }

    fn insert(&mut self, record: &Record) -> Result<Response> {
        self.check_unique(record)?;
        let file = record.file().ok_or(Error::MissingFileKeyword)?.to_owned();
        let key = self.alloc_key();
        // Preferred replica group, then every other backend as fallback
        // so a dead group member is substituted by the next live one.
        // Replicas are written in waves: all outstanding copies are
        // sent before any reply is awaited (send-all-then-collect, like
        // a broadcast round), so a k-way write costs one round trip
        // instead of k. A wave member that dies is substituted by the
        // next serving backend along the scan in the following wave.
        let group = self.partitioner.place_group(&file, self.replication);
        let primary = group[0];
        let n = self.backends.len();
        let mut assigned = Vec::new();
        let mut scanned = 0usize;
        while assigned.len() < self.replication && scanned < n {
            let want = if self.parallel_writes { self.replication - assigned.len() } else { 1 };
            let mut wave = Vec::new();
            while wave.len() < want && scanned < n {
                let i = (primary + scanned) % n;
                scanned += 1;
                // Draining backends take no new placements: their
                // groups are being vacated.
                if self.health.is_serving(i) && !self.draining.contains(&i) {
                    wave.push(i);
                }
            }
            if wave.is_empty() {
                break;
            }
            let seq = self.next_seq();
            let mut sent = Vec::new();
            for &i in &wave {
                if self.send_to(i, seq, BackendOp::InsertWithKey(key, record.clone())) {
                    sent.push(i);
                }
            }
            let mut first_err = None;
            for i in sent {
                match self.recv_reply(i, seq) {
                    Some(Ok(_)) => assigned.push(i),
                    // Drain the whole wave before erroring so reply
                    // queues stay synchronized.
                    Some(Err(e)) if first_err.is_none() => first_err = Some(e),
                    Some(Err(_)) => {}
                    None => {} // died mid-insert; the next wave substitutes
                }
            }
            if let Some(e) = first_err {
                // Key and rotor step are consumed even though the
                // insert failed; log that so recovery agrees.
                self.log_append(LogRecord::Alloc { key: key.0, file })?;
                return Err(e);
            }
        }
        if assigned.is_empty() {
            self.log_append(LogRecord::Alloc { key: key.0, file })?;
            return Err(Error::Unavailable("no live backend accepted the insert".into()));
        }
        self.directory.insert(key, assigned.clone());
        self.resident_add(&file, &assigned);
        self.uniques.insert(key, record);
        self.log_append(LogRecord::Insert { key: key.0, group: assigned, record: record.clone() })?;
        Ok(Response::with_affected(1, Default::default()))
    }

    /// Execute a flight of pairwise non-conflicting inserts and
    /// retrieves with their backend rounds pipelined: every member's
    /// sends go out before any reply is awaited, so the flight costs
    /// one round-trip latency instead of one per member.
    ///
    /// Order discipline: all three phases walk the flight in admission
    /// order. The controller-side reads (unique check, key allocation,
    /// rotor step, routing) happen serially during staging, and the
    /// per-backend channels are FIFO, so each backend observes the
    /// members' operations in admission order and the replies come
    /// back in the same order the collection phase awaits them — the
    /// flight is equivalent to executing its members serially.
    ///
    /// Reads ride the same discipline. A read staged after an insert
    /// of the same flight routes against the directory as it stood
    /// *before* the flight's inserts commit in phase 3 — harmless,
    /// because the scheduler only admits a read next to inserts whose
    /// footprints don't conflict with it: none of the flight's new
    /// records can match the read's qualification, so missing their
    /// placements cannot change the answer.
    fn execute_flight(&mut self, items: &[FlightItem]) -> Vec<Result<Response>> {
        // Phase 1 — stage: per-member bookkeeping, then the member's
        // sends (first replica wave / routed read round), no replies
        // awaited.
        let mut staged: Vec<Staged> = Vec::with_capacity(items.len());
        for item in items {
            self.totals.requests += 1;
            match item {
                FlightItem::Insert(record) => {
                    staged.push(Staged::Insert(self.stage_insert(record)));
                }
                FlightItem::Read(request) => {
                    staged.push(Staged::Read(Box::new(self.stage_read(request))));
                }
            }
        }
        // Phase 2 — collect: await every staged reply in admission
        // order (FIFO channels deliver them in exactly this order).
        // Nothing new is sent here, so no member's pending reply can
        // be mistaken for a stale one and discarded.
        for s in &mut staged {
            match s {
                Staged::Insert(Ok(si)) => {
                    let mut first_err = None;
                    for idx in 0..si.sent.len() {
                        let i = si.sent[idx];
                        match self.recv_reply(i, si.seq) {
                            Some(Ok(_)) => si.assigned.push(i),
                            Some(Err(e)) if first_err.is_none() => first_err = Some(e),
                            Some(Err(_)) => {}
                            None => {} // died mid-flight; substituted in phase 3
                        }
                    }
                    si.err = first_err;
                }
                Staged::Insert(Err(_)) => {}
                Staged::Read(sr) => {
                    for idx in 0..sr.sent.len() {
                        let i = sr.sent[idx];
                        match self.recv_reply(i, sr.seq) {
                            Some(Ok(resp)) => sr.merged.merge(resp),
                            Some(Err(e)) if sr.err.is_none() => sr.err = Some(e),
                            Some(Err(_)) => {}
                            // Died mid-flight. A probe's whole answer is
                            // gone (phase 3 fails over); a routed round's
                            // survivors carry it, like `send_round`.
                            None => sr.lost = true,
                        }
                    }
                }
            }
        }
        // Phase 3 — finish: with the bus idle again, run substitute
        // waves / probe failovers for members the mid-flight deaths
        // left short, then the per-member bookkeeping, all in
        // admission order.
        items
            .iter()
            .zip(staged)
            .map(|(item, s)| match (item, s) {
                (_, Staged::Insert(Err(e))) => Err(e),
                (FlightItem::Insert(record), Staged::Insert(Ok(s))) => {
                    self.finish_staged_insert(record, s)
                }
                (FlightItem::Read(request), Staged::Read(s)) => self.finish_staged_read(request, *s),
                _ => unreachable!("flight item and staged state disagree"),
            })
            .collect()
    }

    /// Phase-1 bookkeeping and first replica wave for one insert
    /// flight member — the staging half of [`Controller::insert`].
    fn stage_insert(&mut self, record: &Record) -> Result<StagedInsert> {
        self.check_unique(record)?;
        let file = record.file().map(str::to_owned).ok_or(Error::MissingFileKeyword)?;
        let n = self.backends.len();
        let key = self.alloc_key();
        let group = self.partitioner.place_group(&file, self.replication);
        let primary = group[0];
        let want = if self.parallel_writes { self.replication } else { 1 };
        let mut scanned = 0usize;
        let mut wave = Vec::new();
        while wave.len() < want && scanned < n {
            let i = (primary + scanned) % n;
            scanned += 1;
            if self.health.is_serving(i) && !self.draining.contains(&i) {
                wave.push(i);
            }
        }
        let seq = self.next_seq();
        let mut sent = Vec::new();
        let mut msgs = 0u64;
        for &i in &wave {
            msgs += 1;
            if self.send_to(i, seq, BackendOp::InsertWithKey(key, record.clone())) {
                sent.push(i);
            }
        }
        Ok(StagedInsert {
            key,
            file,
            seq,
            sent,
            assigned: Vec::new(),
            err: None,
            primary,
            scanned,
            msgs,
        })
    }

    /// Phase-1 routing and sends for one read flight member. Prefers a
    /// single-backend probe when the unique index pins every disjunct
    /// to keys one serving backend fully covers; otherwise the same
    /// scoped/broadcast round `send_round` would run, just without
    /// awaiting the replies yet.
    fn stage_read(&mut self, request: &Request) -> StagedRead {
        let (wire, query) = match request {
            // Partial aggregates do not merge (AVG); stage the raw
            // retrieve and aggregate globally in phase 3, exactly as
            // the solo path does.
            Request::Retrieve { query, target, .. } if target.has_aggregates() => {
                (Request::retrieve_all(query.clone()), query)
            }
            Request::Retrieve { query, .. } => (request.clone(), query),
            _ => unreachable!("read flights hold only retrieves"),
        };
        let (targets, fallback, probe) = match self.probe_plan(query) {
            Some((first, rest)) => (Some(vec![first]), rest, true),
            None => (self.route_targets(query), Vec::new(), false),
        };
        let unavailable = self.health.serving_count() == 0;
        let seq = self.next_seq();
        let mut sent = Vec::new();
        let mut msgs = 0u64;
        let round: Vec<usize> = match &targets {
            None => (0..self.backends.len()).collect(),
            Some(ts) => ts.clone(),
        };
        for i in round {
            if self.health.is_serving(i) {
                msgs += 1;
                if self.send_to(i, seq, BackendOp::Exec(wire.clone())) {
                    sent.push(i);
                }
            }
        }
        if probe {
            self.totals.read_probes += sent.len() as u64;
            for &i in &sent {
                self.read_probes_by_backend[i] += 1;
            }
        }
        // Mirror `send_round`'s unavailability contract: a broadcast
        // (or any read, with zero serving backends) that reaches
        // nobody is an error, while a scoped round whose targets all
        // just died degrades to the survivors' (empty) answer.
        let err = (sent.is_empty() && (targets.is_none() || unavailable))
            .then(|| Error::Unavailable("no live backends".into()));
        // A probe that reached nobody still has its fallbacks to try.
        let lost = probe && sent.is_empty() && !fallback.is_empty();
        StagedRead {
            seq,
            wire,
            sent,
            fallback,
            merged: Response::default(),
            err,
            lost,
            probe,
            msgs,
        }
    }

    /// A single-backend probe plan for a key-scoped read:
    /// `Some((first, fallbacks))` when the unique index pins every
    /// disjunct of `query` to candidate keys and at least one serving
    /// backend holds a replica of *every* candidate record — that
    /// backend alone can answer the read. `fallbacks` are the other
    /// covering backends in failover order, tried one at a time if the
    /// probed backend dies mid-flight. `None` when some disjunct is
    /// only file-scoped, no single serving backend covers all keys, or
    /// routing is disabled — the caller falls back to the
    /// `route_targets` round.
    fn probe_plan(&self, query: &abdl::Query) -> Option<(usize, Vec<usize>)> {
        if !self.scoped_routing {
            return None;
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for conj in &query.disjuncts {
            let file = conj.file()?;
            for key in self.uniques.candidates(file, conj)? {
                groups.push(self.directory.get(&key)?.to_vec());
            }
        }
        // No candidate record at all: the routed round answers empty
        // without a probe (and without any message).
        let (head, rest) = groups.split_first()?;
        let mut covering: Vec<usize> = head
            .iter()
            .copied()
            .filter(|&i| self.health.is_serving(i) && rest.iter().all(|g| g.contains(&i)))
            .collect();
        if covering.is_empty() {
            return None;
        }
        let first = covering.remove(0);
        Some((first, covering))
    }

    /// Complete one read flight member: if a probed backend died
    /// mid-flight, re-probe its replicas one at a time (the bus is
    /// idle again, so a fresh seq per retry is safe), then merge,
    /// aggregate if the request asked for it, and finalize — the same
    /// shape the solo retrieve path produces.
    fn finish_staged_read(&mut self, request: &Request, mut s: StagedRead) -> Result<Response> {
        while s.probe && s.lost && !s.fallback.is_empty() {
            let i = s.fallback.remove(0);
            if !self.health.is_serving(i) {
                continue;
            }
            let seq = self.next_seq();
            s.msgs += 1;
            self.totals.read_probes += 1;
            self.totals.read_probe_failovers += 1;
            self.read_probes_by_backend[i] += 1;
            if !self.send_to(i, seq, BackendOp::Exec(s.wire.clone())) {
                continue;
            }
            match self.recv_reply(i, seq) {
                Some(Ok(resp)) => {
                    s.merged.merge(resp);
                    s.lost = false;
                }
                Some(Err(e)) => {
                    if s.err.is_none() {
                        s.err = Some(e);
                    }
                    s.lost = false;
                }
                None => {} // also died; try the next replica
            }
        }
        if let Some(e) = s.err {
            return Err(e);
        }
        s.merged.dedup_by_key();
        let resp = match request {
            Request::Retrieve { target, by, .. } if target.has_aggregates() => {
                let mut stats = s.merged.stats;
                let groups = aggregate(s.merged.records(), target, by.as_deref())?;
                stats.records_returned = groups.len() as u64;
                let mut resp = Response::with_records(Vec::new(), stats);
                resp.groups = Some(groups);
                resp
            }
            _ => s.merged,
        };
        self.totals.records_examined += resp.stats.records_examined;
        let mut out = self.finalize(resp);
        out.messages_sent = s.msgs;
        Ok(out)
    }

    /// Complete one flight member: substitute replicas lost to
    /// backends dying mid-flight (the same scan `insert` continues
    /// with), then commit the controller-side bookkeeping.
    fn finish_staged_insert(&mut self, record: &Record, mut s: StagedInsert) -> Result<Response> {
        if let Some(e) = s.err {
            // Key and rotor step are consumed even though the insert
            // failed; log that so recovery agrees.
            self.log_append(LogRecord::Alloc { key: s.key.0, file: s.file })?;
            return Err(e);
        }
        let n = self.backends.len();
        while s.assigned.len() < self.replication && s.scanned < n {
            let want =
                if self.parallel_writes { self.replication - s.assigned.len() } else { 1 };
            let mut wave = Vec::new();
            while wave.len() < want && s.scanned < n {
                let i = (s.primary + s.scanned) % n;
                s.scanned += 1;
                if self.health.is_serving(i) && !self.draining.contains(&i) {
                    wave.push(i);
                }
            }
            if wave.is_empty() {
                break;
            }
            let seq = self.next_seq();
            let mut sent = Vec::new();
            for &i in &wave {
                s.msgs += 1;
                if self.send_to(i, seq, BackendOp::InsertWithKey(s.key, record.clone())) {
                    sent.push(i);
                }
            }
            let mut first_err = None;
            for i in sent {
                match self.recv_reply(i, seq) {
                    Some(Ok(_)) => s.assigned.push(i),
                    Some(Err(e)) if first_err.is_none() => first_err = Some(e),
                    Some(Err(_)) => {}
                    None => {}
                }
            }
            if let Some(e) = first_err {
                self.log_append(LogRecord::Alloc { key: s.key.0, file: s.file })?;
                return Err(e);
            }
        }
        if s.assigned.is_empty() {
            self.log_append(LogRecord::Alloc { key: s.key.0, file: s.file })?;
            return Err(Error::Unavailable("no live backend accepted the insert".into()));
        }
        self.directory.insert(s.key, s.assigned.clone());
        self.resident_add(&s.file, &s.assigned);
        self.uniques.insert(s.key, record);
        self.log_append(LogRecord::Insert {
            key: s.key.0,
            group: s.assigned,
            record: record.clone(),
        })?;
        let mut resp = self.finalize(Response::with_affected(1, Default::default()));
        resp.messages_sent = s.msgs;
        Ok(resp)
    }
}

impl Kernel for Controller {
    fn create_file(&mut self, name: &str) {
        if let Err(e) = self.try_create_file(name) {
            // The trait's signature is infallible; surface the failure
            // at the caller's next fallible step instead of losing it.
            self.pending_error.get_or_insert(e);
        }
    }

    fn add_unique_constraint(&mut self, file: &str, attrs: Vec<String>) {
        self.register_unique(file, attrs.clone());
        self.log_append_stashing(LogRecord::Unique { file: file.to_owned(), attrs });
    }

    fn reserve_key(&mut self) -> DbKey {
        let key = self.alloc_key();
        // Language interfaces mint entity ids through this path and
        // store them as data values; an unlogged reservation would
        // re-issue those ids after recovery.
        self.log_append_stashing(LogRecord::ReserveKey { key: key.0 });
        key
    }

    fn execute(&mut self, request: &Request) -> Result<Response> {
        if let Some(e) = self.pending_error.take() {
            return Err(e);
        }
        self.totals.requests += 1;
        let msgs_before = self.totals.messages_sent;
        let mut resp = self.execute_inner(request)?;
        resp.messages_sent = self.totals.messages_sent - msgs_before;
        self.totals.records_examined += resp.stats.records_examined;
        // Piggyback up to `throttle` queued rebalance moves on this
        // foreground request — the online add/drain progresses in
        // bounded slices while traffic flows. Runs after the message
        // attribution above so move traffic never pollutes the
        // response's own counters.
        self.pump_rebalance();
        self.maybe_snapshot();
        Ok(resp)
    }

    fn execute_transaction(&mut self, txn: &Transaction) -> Result<Vec<Response>> {
        // Group commit: every WAL append the transaction produces is
        // buffered and synced once when it completes. (Effects of the
        // requests before a mid-transaction error are still applied and
        // still logged — the batch is a durability optimisation, not
        // atomicity.)
        self.wal_begin_batch();
        let result: Result<Vec<Response>> = txn.requests.iter().map(|r| self.execute(r)).collect();
        let flush = self.wal_commit_batch();
        let out = result?;
        flush?;
        Ok(out)
    }

    /// The conflict-scheduled, pipelined batch path: one request from
    /// each of several concurrent sessions, admitted together.
    ///
    /// The scheduler ([`sched::carve`]) walks the batch in admission
    /// order, classifying each request's [`sched::Footprint`] and greedily
    /// forming *flights* of consecutive non-conflicting inserts and
    /// retrieves (admission is O(1) per request against the flight's
    /// running [`sched::Flight`] summary). A flight's
    /// rounds are all staged onto the backend bus before any reply is
    /// awaited, so non-conflicting sessions' requests are in flight
    /// concurrently on the per-backend sender threads — read-only
    /// flights (reads always commute, broadcast scans included) and
    /// mixed read/insert flights (key-/file-disjoint footprints)
    /// alike, with key-pinned point reads going out as single-backend
    /// probes; a conflicting request closes the flight (a
    /// `conflict_stalls` tick) and waits for it to drain. Because the
    /// per-backend channels are FIFO and both the staging and the
    /// collection walk in admission order, the result is always
    /// equivalent to executing the batch serially in admission order
    /// (`tests/concurrent_equivalence.rs`).
    ///
    /// The whole batch runs inside one WAL group-commit batch: every
    /// session's appends are buffered and flushed with a single sync —
    /// cross-session group commit. As with `execute_transaction`, the
    /// batch is a durability optimisation, not atomicity: each request
    /// keeps its own result, and a flush failure is stashed for the
    /// next `execute` to surface.
    fn execute_batch(&mut self, requests: &[Request]) -> Vec<Result<Response>> {
        if requests.len() < 2 {
            return requests.iter().map(|r| self.execute(r)).collect();
        }
        self.totals.batched_requests += requests.len() as u64;
        self.wal_begin_batch();
        let mut results = Vec::with_capacity(requests.len());
        // Staging keeps several requests in flight per backend; the
        // socket transport's single retransmission slot per link
        // assumes at most one, and the legacy broadcast unique probe
        // would interleave reads into the staged stream — both fall
        // back to the solo path (still batched for group commit). An
        // in-flight group move is a standing broadcast-write conflict:
        // while the rebalance queue is non-empty the scheduler refuses
        // to stage flights at all (each batch member runs solo, after
        // any move its own `execute` pumps), so no staged read can
        // overlap a directory retarget.
        let rebalancing = !self.rebalancer.is_idle();
        if rebalancing && self.net.is_none() && self.unique_via_index {
            self.totals.rebalance_stalls += requests.len() as u64;
        }
        let stageable = self.net.is_none() && self.unique_via_index && !rebalancing;
        // Inserts and retrieves stage; deletes, updates and joins run
        // dependent controller-side rounds and execute solo.
        let plan = sched::carve(
            requests,
            self.uniques.groups(),
            |r| {
                stageable
                    && match r {
                        Request::Insert { .. } => true,
                        Request::Retrieve { .. } => self.parallel_reads,
                        _ => false,
                    }
            },
            &mut self.totals,
        );
        for range in plan {
            if range.len() >= 2 {
                let items: Vec<FlightItem> = requests[range]
                    .iter()
                    .map(|r| match r {
                        Request::Insert { record } => FlightItem::Insert(record),
                        Request::Retrieve { .. } => FlightItem::Read(r),
                        _ => unreachable!("flights hold only inserts and retrieves"),
                    })
                    .collect();
                results.extend(self.execute_flight(&items));
            } else {
                results.push(self.execute(&requests[range.start]));
            }
        }
        if let Err(e) = self.wal_commit_batch() {
            // The batch's log records never reached the store (a
            // promotion fenced this controller mid-batch, or the sync
            // failed). Acknowledging the writes anyway would hand the
            // sessions a success the promoted lineage has never heard
            // of — the model checker's `ack-despite-failed-flush`
            // counterexample is exactly that: write → backend-write →
            // wal-append → promote-fence → flush, and the acked write
            // is not durable. Retract every mutating result in the
            // batch; reads saw committed state and stand.
            for (req, result) in requests.iter().zip(results.iter_mut()) {
                let mutating = matches!(
                    req,
                    Request::Insert { .. } | Request::Delete { .. } | Request::Update { .. }
                );
                if mutating && result.is_ok() {
                    *result = Err(e.clone());
                }
            }
            self.pending_error.get_or_insert(e);
        }
        self.maybe_snapshot();
        results
    }

    fn exec_totals(&self) -> ExecTotals {
        let mut totals = self.totals;
        if let Some(wal) = self.wal.as_ref() {
            let WalStats { appends, batches, syncs, snapshot_installs, max_batch } = wal.stats();
            totals.wal_appends = appends;
            totals.wal_batches = batches;
            totals.wal_syncs = syncs;
            totals.wal_snapshots = snapshot_installs;
            totals.wal_max_batch = max_batch;
        }
        totals
    }

    fn health(&self) -> KernelHealth {
        KernelHealth {
            backends: self.backends.len(),
            unavailable: self.health.unavailable(),
            degraded: if self.degraded_dirty {
                self.compute_degraded()
            } else {
                self.degraded_cache
            },
        }
    }
}

impl Controller {
    /// The request dispatcher behind [`Kernel::execute`], shared with
    /// WAL replay (which must not re-trigger pending-error surfacing or
    /// snapshot compaction).
    fn execute_inner(&mut self, request: &Request) -> Result<Response> {
        match request {
            Request::Insert { record } => {
                let resp = self.insert(record)?;
                Ok(self.finalize(resp))
            }
            Request::Delete { query } => {
                // Logical affected set: matching records, deduplicated
                // across replicas, *before* the round mutates them (the
                // pre-images also feed the index/residency bookkeeping).
                let targets = self.route_targets(query);
                let matched = self.matching_records(query, targets.as_deref())?;
                let resp = self.send_round(request, targets.as_deref())?;
                for (k, rec) in &matched {
                    if let Some(group) = self.directory.remove(k) {
                        if let Some(file) = rec.file().map(str::to_owned) {
                            self.resident_remove(&file, &group);
                        }
                    }
                    self.uniques.remove(*k, rec);
                }
                self.degraded_dirty = true;
                self.log_append(LogRecord::Exec { request: request.clone() })?;
                let out = Response::with_affected(matched.len(), resp.stats);
                Ok(self.finalize(out))
            }
            Request::Update { query, modifier } => {
                let targets = self.route_targets(query);
                let matched = self.matching_records(query, targets.as_deref())?;
                let resp = self.send_round(request, targets.as_deref())?;
                for (k, rec) in &matched {
                    self.uniques.update(*k, rec, &modifier.attr, &modifier.value);
                }
                self.log_append(LogRecord::Exec { request: request.clone() })?;
                let out = Response::with_affected(matched.len(), resp.stats);
                Ok(self.finalize(out))
            }
            Request::Retrieve { query, target, by } if target.has_aggregates() => {
                // Partial aggregates do not merge (AVG); fetch the
                // matching records (deduplicated) and aggregate
                // globally.
                let targets = self.route_targets(query);
                let rows =
                    self.send_round(&Request::retrieve_all(query.clone()), targets.as_deref())?;
                let mut stats = rows.stats;
                let groups = aggregate(rows.records(), target, by.as_deref())?;
                stats.records_returned = groups.len() as u64;
                let mut resp = Response::with_records(Vec::new(), stats);
                resp.groups = Some(groups);
                Ok(self.finalize(resp))
            }
            Request::RetrieveCommon { left, left_attr, right, right_attr, target } => {
                // Matching halves may live on different backends; join
                // at the controller over the merged partials. Each half
                // routes independently.
                let lt = self.route_targets(left);
                let l = self.send_round(&Request::retrieve_all(left.clone()), lt.as_deref())?;
                let rt = self.route_targets(right);
                let r = self.send_round(&Request::retrieve_all(right.clone()), rt.as_deref())?;
                // Tag halves into scratch files (a record matching both
                // qualifications must appear on both sides, so the keys
                // are remapped disjointly).
                let mut joiner = Store::new();
                for (key, rec) in l.records() {
                    let mut rec = rec.clone();
                    rec.set(abdl::FILE_ATTR, abdl::Value::str("__mbds_left"));
                    joiner.insert_with_key(DbKey(key.0 * 2), rec)?;
                }
                for (key, rec) in r.records() {
                    let mut rec = rec.clone();
                    rec.set(abdl::FILE_ATTR, abdl::Value::str("__mbds_right"));
                    joiner.insert_with_key(DbKey(key.0 * 2 + 1), rec)?;
                }
                let mut stats = l.stats;
                stats += r.stats;
                let joined = joiner.execute(&Request::RetrieveCommon {
                    left: abdl::Query::conjunction(vec![abdl::Predicate::eq(
                        abdl::FILE_ATTR,
                        "__mbds_left",
                    )]),
                    left_attr: left_attr.clone(),
                    right: abdl::Query::conjunction(vec![abdl::Predicate::eq(
                        abdl::FILE_ATTR,
                        "__mbds_right",
                    )]),
                    right_attr: right_attr.clone(),
                    target: target.clone(),
                })?;
                let mut out = joined;
                out.stats += stats;
                Ok(self.finalize(out))
            }
            other => {
                let targets = match other {
                    Request::Retrieve { query, .. } => self.route_targets(query),
                    _ => None,
                };
                let resp = self.send_round(other, targets.as_deref())?;
                Ok(self.finalize(resp))
            }
        }
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        // A demoted primary (a standby promoted past our epoch) no
        // longer owns the backend threads: detach without shutting them
        // down — the promoted controller is serving over them.
        let demoted = self.fence.load(Ordering::SeqCst) > self.epoch;
        if self.net.is_some() {
            if demoted {
                // The promoted controller holds the SharedNet Arc and
                // keeps serving over the same backend processes.
                return;
            }
            let epoch = self.epoch;
            for i in 0..self.backends.len() {
                if let Some(link) = self.backends[i].tcp.as_mut() {
                    let _ = link.send(&WireOp::Shutdown.into_frame(0, epoch));
                }
                self.reap_child(i);
            }
            return;
        }
        for b in &mut self.backends {
            if demoted {
                let _ = b.join.take();
                continue;
            }
            let _ = b.tx.send(Envelope {
                seq: 0,
                epoch: self.epoch,
                reply: b.reply_tx.clone(),
                op: BackendOp::Shutdown,
            });
            if let Some(join) = b.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// Render the placement-independent projection of a snapshot: what the
/// cluster *stores*, not where. Shared by [`Controller::logical_digest`]
/// and [`crate::SimCluster::logical_digest`].
pub(crate) fn logical_digest_of(snap: &SnapshotData) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "next-key {}", snap.next_key);
    for file in &snap.files {
        let _ = writeln!(out, "file {file}");
    }
    for (file, attrs) in &snap.uniques {
        let _ = writeln!(out, "unique {file} {}", attrs.join(" "));
    }
    for (key, _, record) in &snap.places {
        match record {
            Some(record) => {
                let _ = writeln!(out, "{key} {record}");
            }
            None => {
                let _ = writeln!(out, "{key} ?");
            }
        }
    }
    out
}

fn spawn_backend(
    index: usize,
    fence: Arc<AtomicU64>,
    faults: Arc<Mutex<FaultPlan>>,
) -> BackendHandle {
    let (tx, backend_rx) = channel::<Envelope>();
    let (reply_tx, rx) = channel::<Reply>();
    let join = std::thread::Builder::new()
        .name(format!("mbds-backend-{index}"))
        .spawn(move || backend_loop(index, backend_rx, fence, faults))
        .expect("spawn backend thread");
    BackendHandle { tx, rx, reply_tx, join: Some(join), tcp: None, last_frame: None }
}

/// One backend: a private store served over the bus, with fault
/// injection on the per-backend message counter and epoch fencing on
/// every envelope — messages from a controller below the cluster fence
/// are refused (and a stale `Shutdown` is ignored outright, so a
/// demoted primary being dropped cannot take the cluster down).
fn backend_loop(
    index: usize,
    rx: Receiver<Envelope>,
    fence: Arc<AtomicU64>,
    faults: Arc<Mutex<FaultPlan>>,
) {
    let mut store = Store::new();
    let mut handled: u64 = 0;
    while let Ok(env) = rx.recv() {
        if env.epoch < fence.load(Ordering::SeqCst) {
            if !matches!(env.op, BackendOp::Shutdown) {
                let _ = env.reply.send(Reply {
                    seq: env.seq,
                    result: Err(Error::Unavailable(format!(
                        "backend {index}: request fenced (epoch {} < fence {})",
                        env.epoch,
                        fence.load(Ordering::SeqCst)
                    ))),
                });
            }
            continue;
        }
        if matches!(env.op, BackendOp::Shutdown) {
            return;
        }
        handled += 1;
        let fault = faults.lock().ok().and_then(|p| p.action(index, handled));
        match fault {
            Some(FaultKind::Crash) => return,
            Some(FaultKind::Panic) => {
                panic!("injected fault: backend {index} panics at message {handled}")
            }
            _ => {}
        }
        let result = match env.op {
            BackendOp::CreateFile(name) => {
                store.create_file(name);
                Ok(Response::default())
            }
            BackendOp::InsertWithKey(key, record) => store
                .insert_with_key(key, record)
                .map(|()| Response::with_affected(1, Default::default())),
            BackendOp::Exec(req) => store.execute(&req),
            BackendOp::DeleteKeys(keys) => {
                let removed =
                    keys.iter().filter(|&&k| store.remove_by_key(k).is_some()).count();
                Ok(Response::with_affected(removed, Default::default()))
            }
            BackendOp::FetchKeys(keys) => {
                let records: Vec<(DbKey, Record)> = keys
                    .iter()
                    .filter_map(|&k| store.record_by_key(k).map(|r| (k, r.clone())))
                    .collect();
                Ok(Response::with_records(records, Default::default()))
            }
            BackendOp::Shutdown => unreachable!("handled above"),
        };
        match fault {
            Some(FaultKind::DropReply) => continue,
            Some(FaultKind::DelayReplyMs(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
            }
            _ => {}
        }
        let _ = env.reply.send(Reply { seq: env.seq, result });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abdl::parse::parse_request;
    use abdl::Value;

    fn insert(k: &mut impl Kernel, file: &str, key: i64, extra: &[(&str, Value)]) {
        let mut rec = Record::from_pairs([("FILE", Value::str(file))]);
        rec.set(file.to_owned(), Value::Int(key));
        for (a, v) in extra {
            rec.set((*a).to_owned(), v.clone());
        }
        k.execute(&Request::Insert { record: rec }).unwrap();
    }

    #[test]
    fn retrieve_merges_partitions() {
        let mut c = Controller::new(4);
        c.create_file("f");
        for i in 0..20 {
            insert(&mut c, "f", i, &[("bucket", Value::Int(i % 3))]);
        }
        let resp = c
            .execute(&parse_request("RETRIEVE ((FILE = f) and (bucket = 1)) (*)").unwrap())
            .unwrap();
        assert_eq!(resp.records().len(), 7);
        // Merged responses are sorted by database key.
        let keys: Vec<u64> = resp.records().iter().map(|(k, _)| k.0).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn update_and_delete_report_logical_counts() {
        let mut c = Controller::new(3);
        c.create_file("f");
        for i in 0..12 {
            insert(&mut c, "f", i, &[("x", Value::Int(0))]);
        }
        // With k = 2, twelve records occupy twenty-four replica slots;
        // the affected counts must still be the logical ones.
        let resp = c.execute(&parse_request("UPDATE ((FILE = f) and (f >= 6)) (x = 1)").unwrap());
        assert_eq!(resp.unwrap().affected, 6);
        let resp = c.execute(&parse_request("DELETE ((FILE = f) and (x = 1))").unwrap()).unwrap();
        assert_eq!(resp.affected, 6);
        let rest = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(rest.records().len(), 6);
    }

    #[test]
    fn aggregates_are_globally_correct() {
        let mut c = Controller::new(4);
        c.create_file("f");
        for i in 0..10 {
            insert(&mut c, "f", i, &[("v", Value::Int(i))]);
        }
        let resp =
            c.execute(&parse_request("RETRIEVE (FILE = f) (COUNT(v), AVG(v), MAX(v))").unwrap());
        let groups = resp.unwrap().groups.unwrap();
        assert_eq!(groups[0].values[0], Value::Int(10));
        // Global AVG = 4.5; a naive per-backend merge could not produce
        // this for uneven partitions — and replicated copies must not
        // count twice.
        assert_eq!(groups[0].values[1], Value::Float(4.5));
        assert_eq!(groups[0].values[2], Value::Int(9));
    }

    #[test]
    fn unique_constraints_enforced_across_partitions() {
        let mut c = Controller::new(4);
        c.create_file("f");
        c.add_unique_constraint("f", vec!["name".into()]);
        insert(&mut c, "f", 1, &[("name", Value::str("a"))]);
        // The duplicate would land on a different backend; the global
        // check must still reject it.
        let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
        rec.set("f", Value::Int(2));
        rec.set("name", Value::str("a"));
        let err = c.execute(&Request::Insert { record: rec }).unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. }));
    }

    #[test]
    fn retrieve_common_joins_across_backends() {
        let mut c = Controller::new(3);
        c.create_file("a");
        c.create_file("b");
        insert(&mut c, "a", 1, &[("j", Value::Int(7)), ("la", Value::str("left"))]);
        insert(&mut c, "b", 1, &[("j", Value::Int(7)), ("lb", Value::str("right"))]);
        insert(&mut c, "b", 2, &[("j", Value::Int(8))]);
        let resp = c
            .execute(
                &parse_request(
                    "RETRIEVE-COMMON ((FILE = a)) (j) COMMON ((FILE = b)) (j) (la, lb)",
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(resp.records().len(), 1);
        assert_eq!(resp.records()[0].1.get("lb"), Some(&Value::str("right")));
    }

    #[test]
    fn results_are_identical_to_single_store() {
        let mut single = Store::new();
        let mut multi = Controller::new(5);
        single.create_file("f");
        multi.create_file("f");
        for i in 0..50 {
            insert(&mut single, "f", i, &[("m", Value::Int(i % 4))]);
            insert(&mut multi, "f", i, &[("m", Value::Int(i % 4))]);
        }
        for q in [
            "RETRIEVE ((FILE = f) and (m = 2)) (f, m)",
            "RETRIEVE ((FILE = f) and (f >= 40)) (*)",
            "RETRIEVE (FILE = f) (COUNT(f)) BY m",
        ] {
            let a = single.execute(&parse_request(q).unwrap()).unwrap();
            let b = multi.execute(&parse_request(q).unwrap()).unwrap();
            assert_eq!(a.records(), b.records(), "records differ for {q}");
            assert_eq!(a.groups, b.groups, "groups differ for {q}");
        }
    }

    #[test]
    fn transactions_execute_sequentially_through_the_controller() {
        let mut c = Controller::new(3);
        c.create_file("f");
        let txn = abdl::parse::parse_transaction(
            "INSERT (<FILE, f>, <f, 1>, <x, 1>);
             INSERT (<FILE, f>, <f, 2>, <x, 1>);
             UPDATE ((FILE = f) and (x = 1)) (x = 2);
             RETRIEVE ((FILE = f) and (x = 2)) (*)",
        )
        .unwrap();
        let responses = c.execute_transaction(&txn).unwrap();
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[2].affected, 2);
        assert_eq!(responses[3].records().len(), 2);
    }

    #[test]
    fn killing_one_backend_loses_nothing_with_replication() {
        let mut c = Controller::new(4);
        c.create_file("f");
        for i in 0..20 {
            insert(&mut c, "f", i, &[]);
        }
        c.kill_backend(2);
        assert_eq!(c.alive_count(), 3);
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 20, "replication keeps every record answerable");
        assert!(!resp.degraded, "one failure with k=2 is not degraded");
        assert_eq!(resp.unavailable_backends, vec![2]);
        // The system still accepts new work.
        insert(&mut c, "f", 100, &[]);
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 21);
    }

    #[test]
    fn unreplicated_loss_is_reported_as_degraded() {
        let mut c = Controller::unreplicated(4);
        c.create_file("f");
        for i in 0..20 {
            insert(&mut c, "f", i, &[]);
        }
        c.kill_backend(2);
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 15, "one quarter of the records is gone");
        assert!(resp.degraded, "the partial answer must be flagged");
        assert_eq!(resp.unavailable_backends, vec![2]);
    }

    #[test]
    fn killing_a_whole_replica_pair_degrades() {
        let mut c = Controller::new(4);
        c.create_file("f");
        for i in 0..20 {
            insert(&mut c, "f", i, &[]);
        }
        // Replica groups are (p, p+1); killing 1 and 2 removes both
        // copies of the records placed on group (1, 2).
        c.kill_backend(1);
        c.kill_backend(2);
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert!(resp.degraded, "both replicas of some records are dead");
        assert_eq!(resp.unavailable_backends, vec![1, 2]);
        assert!(resp.records().len() < 20);
    }

    #[test]
    fn restart_restores_redundancy() {
        let mut c = Controller::new(4);
        c.create_file("f");
        for i in 0..20 {
            insert(&mut c, "f", i, &[]);
        }
        c.kill_backend(2);
        c.restart_backend(2).unwrap();
        assert_eq!(c.alive_count(), 4);
        let h = c.health();
        assert!(!h.degraded);
        assert!(h.unavailable.is_empty());
        // Full redundancy is back: killing the *neighbor* (which shares
        // replica pairs with 2) now loses nothing.
        c.kill_backend(3);
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 20, "second failure after recovery loses nothing");
        assert!(!resp.degraded);
    }

    #[test]
    fn create_file_failure_is_propagated() {
        let mut c = Controller::new(2);
        c.kill_backend(0);
        c.kill_backend(1);
        assert!(matches!(c.try_create_file("f"), Err(Error::Unavailable(_))));
        // Through the infallible trait surface, the error arrives at
        // the next execute.
        c.create_file("g");
        let err = c
            .execute(&parse_request("RETRIEVE (FILE = g) (*)").unwrap())
            .unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)));
    }

    #[test]
    fn durable_controller_rebuilds_identically_from_the_log() {
        let log = crate::MemLog::new();
        let mut c = Controller::durable_with(4, 2, log.clone()).unwrap();
        c.try_create_file("f").unwrap();
        c.add_unique_constraint("f", vec!["name".into()]);
        for i in 0..20 {
            insert(&mut c, "f", i, &[("x", Value::Int(i % 3))]);
        }
        c.execute(&parse_request("UPDATE ((FILE = f) and (x = 0)) (x = 9)").unwrap()).unwrap();
        c.execute(&parse_request("DELETE ((FILE = f) and (x = 1))").unwrap()).unwrap();
        c.kill_backend(1);
        c.restart_backend(1).unwrap();
        c.kill_backend(3);
        let live = c.state_digest().unwrap();

        let mut r = Controller::recover_with(log).unwrap();
        assert_eq!(r.state_digest().unwrap(), live, "snapshot+WAL rebuild ≡ live state");
        assert_eq!(r.key_high_water(), c.key_high_water());
        assert_eq!(r.alive_count(), c.alive_count());
        for q in [
            "RETRIEVE (FILE = f) (*)",
            "RETRIEVE ((FILE = f) and (x = 9)) (f, x)",
            "RETRIEVE (FILE = f) (COUNT(f)) BY x",
        ] {
            let a = c.execute(&parse_request(q).unwrap()).unwrap();
            let b = r.execute(&parse_request(q).unwrap()).unwrap();
            assert_eq!(a.records(), b.records(), "records differ for {q}");
            assert_eq!(a.groups, b.groups, "groups differ for {q}");
        }
    }

    #[test]
    fn snapshot_compaction_preserves_recovery_and_truncates_the_log() {
        let log = crate::MemLog::new();
        let mut c = Controller::durable_with(3, 2, log.clone()).unwrap();
        c.set_snapshot_every(7);
        c.try_create_file("f").unwrap();
        for i in 0..25 {
            insert(&mut c, "f", i, &[]);
        }
        assert!(log.log_len() < 25, "cadence must have compacted the log");
        let live = c.state_digest().unwrap();
        let mut r = Controller::recover_with(log).unwrap();
        assert_eq!(r.state_digest().unwrap(), live);
    }

    #[test]
    fn public_key_reservations_survive_recovery() {
        let log = crate::MemLog::new();
        let mut c = Controller::durable_with(2, 1, log.clone()).unwrap();
        // Language layers mint entity ids this way; the recovered
        // allocator must not re-issue them.
        let k1 = c.reserve_key();
        let k2 = c.reserve_key();
        assert_eq!(k2.0, k1.0 + 1);
        drop(c);
        let mut r = Controller::recover_with(log).unwrap();
        assert_eq!(r.reserve_key().0, k2.0 + 1);
    }

    #[test]
    fn durable_refuses_an_already_used_log_and_recover_an_empty_one() {
        let log = crate::MemLog::new();
        let c = Controller::durable_with(2, 2, log.clone()).unwrap();
        drop(c);
        assert!(matches!(Controller::durable_with(2, 2, log), Err(Error::Internal(_))));
        assert!(matches!(Controller::recover_with(crate::MemLog::new()), Err(Error::Internal(_))));
    }

    #[test]
    fn crash_fault_is_survived_and_detected() {
        let mut c = Controller::new(3);
        c.set_reply_timeout(Duration::from_millis(100));
        c.create_file("f");
        // Backend 1 crashes on its 5th message.
        c.set_fault_plan(FaultPlan::new().with(1, 5, FaultKind::Crash));
        for i in 0..20 {
            insert(&mut c, "f", i, &[]);
        }
        assert_eq!(c.alive_count(), 2, "the crash was detected");
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 20, "no record was lost to the crash");
    }

    fn insert_req(file: &str, key: i64, extra: &[(&str, Value)]) -> Request {
        let mut rec = Record::from_pairs([("FILE", Value::str(file))]);
        rec.set(file.to_owned(), Value::Int(key));
        for (a, v) in extra {
            rec.set((*a).to_owned(), v.clone());
        }
        Request::Insert { record: rec }
    }

    #[test]
    fn batched_execution_is_equivalent_to_serial_admission_order() {
        let mut serial = Controller::new(4);
        let mut batched = Controller::new(4);
        for c in [&mut serial, &mut batched] {
            c.create_file("f");
            c.add_unique_constraint("f", vec!["f".into()]);
        }
        let requests: Vec<Request> =
            (0..16).map(|i| insert_req("f", i, &[("x", Value::Int(i % 3))])).collect();
        for r in &requests {
            serial.execute(r).unwrap();
        }
        for res in batched.execute_batch(&requests) {
            res.unwrap();
        }
        assert_eq!(batched.unique_index_digest(), serial.unique_index_digest());
        assert_eq!(batched.state_digest().unwrap(), serial.state_digest().unwrap());
        let t = batched.exec_totals();
        assert_eq!(t.batched_requests, 16);
        assert!(t.sched_flights >= 1, "non-conflicting inserts must fly together");
        assert!(t.sched_max_flight >= 2, "a flight holds more than one request");
    }

    #[test]
    fn batch_rejects_a_duplicate_claimed_mid_flight() {
        let mut c = Controller::new(3);
        c.create_file("f");
        c.add_unique_constraint("f", vec!["f".into()]);
        // Keys 0..4 commute; the re-claim of key 2 must stall behind
        // the flight, then lose its unique check once it has landed.
        let mut reqs: Vec<Request> = (0..4).map(|i| insert_req("f", i, &[])).collect();
        reqs.push(insert_req("f", 2, &[]));
        reqs.push(insert_req("f", 9, &[]));
        let results = c.execute_batch(&reqs);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            if i == 4 {
                assert!(
                    matches!(r, Err(Error::DuplicateKey { .. })),
                    "the later-admitted duplicate must lose"
                );
            } else {
                assert!(r.is_ok(), "request {i} should succeed");
            }
        }
        let t = c.exec_totals();
        assert!(t.conflict_stalls >= 1, "the duplicate had to close the flight");
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 5);
    }

    #[test]
    fn mixed_batch_reads_observe_exactly_the_writes_admitted_before_them() {
        let mut c = Controller::new(3);
        c.create_file("f");
        c.add_unique_constraint("f", vec!["f".into()]);
        let reqs = vec![
            insert_req("f", 1, &[]),
            insert_req("f", 2, &[]),
            parse_request("RETRIEVE (FILE = f) (*)").unwrap(),
            insert_req("f", 3, &[]),
        ];
        let results = c.execute_batch(&reqs);
        let seen = results[2].as_ref().unwrap().records().len();
        assert_eq!(seen, 2, "the read sees the two inserts admitted ahead of it, not the third");
        assert!(results[3].as_ref().is_ok());
    }

    #[test]
    fn batch_wal_appends_group_commit_under_one_sync() {
        let log = crate::MemLog::new();
        let mut c = Controller::durable_with(3, 2, log).unwrap();
        c.try_create_file("f").unwrap();
        let before = c.exec_totals().wal_syncs;
        let reqs: Vec<Request> = (0..8).map(|i| insert_req("f", i, &[])).collect();
        for r in c.execute_batch(&reqs) {
            r.unwrap();
        }
        let t = c.exec_totals();
        assert_eq!(t.wal_syncs - before, 1, "the whole batch pays a single sync");
        assert_eq!(t.wal_max_batch, 8, "all eight appends flushed together");
    }
}
