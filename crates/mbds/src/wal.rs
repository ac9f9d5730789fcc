//! Durable controller state: a checksummed write-ahead log plus
//! periodic compacted snapshots.
//!
//! The 1987 MBDS controller kept the record directory, the key
//! allocator and the placement rotors only in memory — a controller
//! crash lost the record-to-backend mapping even though every backend
//! still held its partition. This module makes that state durable:
//!
//! * every directory mutation (file create, key allocation, record
//!   placement, kill/restart) is appended to a **write-ahead log**
//!   before the operation completes, one line per entry, each line
//!   carrying a sequence number and a CRC-32 checksum;
//! * a **snapshot** is a full compacted rendering of controller state
//!   (metadata *and* record data — the backends here are in-process
//!   worker threads, so their stores die with the controller and must
//!   be rebuilt from the log); installing a snapshot truncates the log;
//! * recovery ([`Wal::load`]) reads the snapshot, then replays log
//!   entries in order, verifying checksum and sequence continuity and
//!   stopping at the first torn or corrupt line (a crash mid-append
//!   loses at most the entry being written, never earlier state).
//!
//! Storage is behind the [`LogStore`] trait: [`FileLog`] persists to a
//! directory (`snapshot.mbds` + `wal.log`, snapshot installs via
//! atomic rename), while [`MemLog`] keeps everything in a shared
//! in-memory buffer for the deterministic crash-recovery harness and
//! the simulated cluster.
//!
//! The crash-point injector ([`Wal::set_crash_after`]) makes the Nth
//! append *succeed durably and then fail the controller*, which is
//! exactly the adversarial schedule the recovery property tests sweep.
//!
//! For hot-standby replication (the [`crate::Standby`] subsystem) the
//! log doubles as the replication stream: every line carries the
//! writing controller's **epoch** next to its sequence number, a
//! [`LogCursor`] tails the store incrementally (tolerating in-flight
//! group-commit batches, torn tails, and snapshot installs that
//! truncate the log underneath it), and the store itself holds a
//! **fence epoch** — once a standby promotes and raises the fence,
//! every append from the demoted lower-epoch [`Wal`] is refused before
//! it reaches the store, so a zombie primary can never write again.

use abdl::parse::parse_request;
use abdl::{Error, Record, Request, Result};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The byte-at-a-time lookup table of [`crc32`]: entry `i` is `i`
/// pushed through eight rounds of the reflected IEEE polynomial.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum of every
/// log line and every wire frame. Table-driven, one lookup per byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes
        .iter()
        .fold(!0u32, |crc, &b| CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8))
}

/// One logged directory mutation. The payload grammar reuses ABDL's
/// canonical text (records and requests print and re-parse exactly),
/// so the log is human-readable and diffable like an ABDL dump.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A kernel file was created (acknowledged by at least one backend).
    CreateFile {
        /// The file name.
        name: String,
    },
    /// A `DUPLICATES ARE NOT ALLOWED` group was registered.
    Unique {
        /// The constrained file.
        file: String,
        /// The attribute group.
        attrs: Vec<String>,
    },
    /// A database key was handed out through the public `reserve_key`
    /// (language interfaces mint entity ids this way; losing these
    /// would re-issue ids after recovery).
    ReserveKey {
        /// The reserved key.
        key: u64,
    },
    /// An insert consumed a key and a placement rotor step but placed
    /// nothing (no backend accepted it). Logged so the recovered
    /// allocator and rotor agree with the live run.
    Alloc {
        /// The consumed key.
        key: u64,
        /// The file whose rotor advanced.
        file: String,
    },
    /// A record was placed on a replica group.
    Insert {
        /// The record's database key.
        key: u64,
        /// The backends that acknowledged the copy.
        group: Vec<usize>,
        /// The record itself (backends are in-process; their stores are
        /// rebuilt from the log on recovery).
        record: Record,
    },
    /// A mutation (UPDATE/DELETE) executed successfully; replayed
    /// verbatim on recovery.
    Exec {
        /// The request, re-executed on replay.
        request: Request,
    },
    /// A backend died (killed or detected dead mid-operation).
    Dead {
        /// The backend index.
        backend: usize,
    },
    /// A `restart_backend` re-replication began. Replay performs the
    /// whole restart here; the matching [`LogRecord::RestartEnd`] marks
    /// it completed (its absence means the controller crashed
    /// mid-restart — re-running the restart is idempotent).
    RestartBegin {
        /// The backend index.
        backend: usize,
    },
    /// The matching restart completed.
    RestartEnd {
        /// The backend index.
        backend: usize,
    },
    /// One *chunk* of a live group move began: the records with exactly
    /// these `keys`, placed on replica group `from`, are being copied so
    /// they live on group `to` instead. Large groups move as a sequence
    /// of bounded chunks, each its own complete bracket, so foreground
    /// traffic is never stalled behind a whole-group copy. Replay
    /// re-performs exactly the listed keys here; the matching
    /// [`LogRecord::MoveEnd`] marks the chunk committed (its absence
    /// means the controller crashed mid-chunk — re-running the chunk is
    /// idempotent).
    MoveBegin {
        /// The replica group being vacated (its member set identifies
        /// it; interned group ids are not stable across snapshots).
        from: Vec<usize>,
        /// The replica group the records now live on.
        to: Vec<usize>,
        /// The database keys of this chunk.
        keys: Vec<u64>,
    },
    /// The matching group move committed: reads switch to `to`.
    MoveEnd {
        /// The vacated replica group.
        from: Vec<usize>,
        /// The now-serving replica group.
        to: Vec<usize>,
    },
    /// A new backend joined the cluster at index `backend`, growing the
    /// cluster to `backend + 1` members and starting the unwrap
    /// rebalance (groups that wrapped around the old ring are moved to
    /// contiguous slots on the grown ring).
    AddBackend {
        /// The new backend's index.
        backend: usize,
    },
    /// The unwrap rebalance following [`LogRecord::AddBackend`]
    /// finished: no wrapped groups remain.
    AddEnd {
        /// The backend whose join triggered the rebalance.
        backend: usize,
    },
    /// A backend drain began: every group it serves is being moved to
    /// the remaining members.
    DrainBegin {
        /// The backend being drained.
        backend: usize,
    },
    /// The matching drain finished; the backend left service for good.
    DrainEnd {
        /// The drained backend.
        backend: usize,
    },
}

fn bad(msg: impl Into<String>) -> Error {
    Error::Internal(msg.into())
}

impl LogRecord {
    /// The entry payload (without sequence number or checksum).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Append [`LogRecord::encode`]'s payload to `out`.
    pub fn encode_into(&self, out: &mut String) {
        // `fmt::Write` into a `String` cannot fail.
        let _ = match self {
            LogRecord::CreateFile { name } => write!(out, "create {name}"),
            LogRecord::Unique { file, attrs } => write!(out, "unique {file} {}", attrs.join(" ")),
            LogRecord::ReserveKey { key } => write!(out, "key {key}"),
            LogRecord::Alloc { key, file } => write!(out, "alloc {key} {file}"),
            LogRecord::Insert { key, group, record } => {
                let _ = write!(out, "insert {key} ");
                write_joined(out, group);
                write!(out, " {record}")
            }
            LogRecord::Exec { request } => write!(out, "exec {request}"),
            LogRecord::Dead { backend } => write!(out, "dead {backend}"),
            LogRecord::RestartBegin { backend } => write!(out, "restart-begin {backend}"),
            LogRecord::RestartEnd { backend } => write!(out, "restart-end {backend}"),
            LogRecord::MoveBegin { from, to, keys } => {
                out.push_str("move-begin ");
                write_joined(out, from);
                out.push(' ');
                write_joined(out, to);
                out.push(' ');
                write_joined(out, keys);
                Ok(())
            }
            LogRecord::MoveEnd { from, to } => {
                out.push_str("move-end ");
                write_joined(out, from);
                out.push(' ');
                write_joined(out, to);
                Ok(())
            }
            LogRecord::AddBackend { backend } => write!(out, "add-backend {backend}"),
            LogRecord::AddEnd { backend } => write!(out, "add-end {backend}"),
            LogRecord::DrainBegin { backend } => write!(out, "drain-begin {backend}"),
            LogRecord::DrainEnd { backend } => write!(out, "drain-end {backend}"),
        };
    }

    /// Parse an entry payload produced by [`LogRecord::encode`].
    pub fn decode(payload: &str) -> Result<LogRecord> {
        let (verb, rest) = payload.split_once(' ').unwrap_or((payload, ""));
        match verb {
            "create" if !rest.is_empty() => Ok(LogRecord::CreateFile { name: rest.to_owned() }),
            "unique" => {
                let mut parts = rest.split(' ').filter(|s| !s.is_empty());
                let file = parts.next().ok_or_else(|| bad("wal: unique without file"))?;
                let attrs: Vec<String> = parts.map(str::to_owned).collect();
                if attrs.is_empty() {
                    return Err(bad("wal: unique without attributes"));
                }
                Ok(LogRecord::Unique { file: file.to_owned(), attrs })
            }
            "key" => Ok(LogRecord::ReserveKey { key: parse_u64(rest)? }),
            "alloc" => {
                let (key, file) =
                    rest.split_once(' ').ok_or_else(|| bad("wal: alloc without file"))?;
                Ok(LogRecord::Alloc { key: parse_u64(key)?, file: file.to_owned() })
            }
            "insert" => {
                let (key, rest) =
                    rest.split_once(' ').ok_or_else(|| bad("wal: insert without group"))?;
                let (group, record) =
                    rest.split_once(' ').ok_or_else(|| bad("wal: insert without record"))?;
                match parse_request(&format!("INSERT {record}"))? {
                    Request::Insert { record } => Ok(LogRecord::Insert {
                        key: parse_u64(key)?,
                        group: parse_members(group)?,
                        record,
                    }),
                    _ => Err(bad("wal: insert payload did not parse as a record")),
                }
            }
            "exec" => Ok(LogRecord::Exec { request: parse_request(rest)? }),
            "dead" => Ok(LogRecord::Dead { backend: parse_usize(rest)? }),
            "restart-begin" => Ok(LogRecord::RestartBegin { backend: parse_usize(rest)? }),
            "restart-end" => Ok(LogRecord::RestartEnd { backend: parse_usize(rest)? }),
            "move-begin" => {
                let (from, rest) =
                    rest.split_once(' ').ok_or_else(|| bad("wal: move without target group"))?;
                let (to, keys) =
                    rest.split_once(' ').ok_or_else(|| bad("wal: move-begin without keys"))?;
                let keys = keys
                    .split(',')
                    .filter(|k| !k.is_empty())
                    .map(parse_u64)
                    .collect::<Result<Vec<u64>>>()?;
                Ok(LogRecord::MoveBegin { from: parse_members(from)?, to: parse_members(to)?, keys })
            }
            "move-end" => {
                let (from, to) =
                    rest.split_once(' ').ok_or_else(|| bad("wal: move without target group"))?;
                Ok(LogRecord::MoveEnd { from: parse_members(from)?, to: parse_members(to)? })
            }
            "add-backend" => Ok(LogRecord::AddBackend { backend: parse_usize(rest)? }),
            "add-end" => Ok(LogRecord::AddEnd { backend: parse_usize(rest)? }),
            "drain-begin" => Ok(LogRecord::DrainBegin { backend: parse_usize(rest)? }),
            "drain-end" => Ok(LogRecord::DrainEnd { backend: parse_usize(rest)? }),
            _ => Err(bad(format!("wal: unknown entry `{payload}`"))),
        }
    }
}

/// Append `items` to `out` as the log's comma-separated `a,b,c` form
/// (replica-group members, moved keys).
fn write_joined(out: &mut String, items: &[impl std::fmt::Display]) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
}

/// Parse a `a,b,c` replica-group member list.
fn parse_members(s: &str) -> Result<Vec<usize>> {
    s.split(',')
        .map(|m| m.parse::<usize>().map_err(|_| bad(format!("wal: bad group member `{m}`"))))
        .collect()
}

fn parse_u64(s: &str) -> Result<u64> {
    s.parse().map_err(|_| bad(format!("wal: bad number `{s}`")))
}

fn parse_usize(s: &str) -> Result<usize> {
    s.parse().map_err(|_| bad(format!("wal: bad backend index `{s}`")))
}

/// The snapshot-format header line.
pub const SNAPSHOT_HEADER: &str = "--! mbds-snapshot v1";

/// A full compacted rendering of controller state. Rendering is
/// deterministic (directory, rotors and constraints are emitted in
/// sorted order), so the text doubles as a byte-comparable state
/// digest for the recovery property tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotData {
    /// Total backend count (alive or dead).
    pub backends: usize,
    /// Copies kept per record.
    pub replication: usize,
    /// The key allocator's high-water mark.
    pub next_key: u64,
    /// Dead backends, ascending.
    pub dead: Vec<usize>,
    /// Backends mid-drain, ascending: their groups were still being
    /// moved off when the snapshot was taken — recovery re-plans and
    /// finishes the drain.
    pub draining: Vec<usize>,
    /// True while an add-backend unwrap rebalance is in progress:
    /// recovery re-plans the remaining wrapped-group moves.
    pub unwrap: bool,
    /// Per-file placement rotor positions, sorted by file.
    pub rotors: Vec<(String, usize)>,
    /// Kernel files in creation order.
    pub files: Vec<String>,
    /// Uniqueness groups, sorted by file (insertion order within).
    pub uniques: Vec<(String, Vec<String>)>,
    /// The directory sorted by key: each record's replica group and,
    /// when at least one live replica still held it, the record data.
    /// A `None` record is a directory entry whose every replica is
    /// dead — the mapping survives even though the data currently does
    /// not.
    pub places: Vec<(u64, Vec<usize>, Option<Record>)>,
}

impl SnapshotData {
    /// Render as snapshot text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{SNAPSHOT_HEADER}");
        let _ = writeln!(out, "--! backends {} replication {}", self.backends, self.replication);
        let _ = writeln!(out, "--! next-key {}", self.next_key);
        if !self.dead.is_empty() {
            let dead: Vec<String> = self.dead.iter().map(usize::to_string).collect();
            let _ = writeln!(out, "--! dead {}", dead.join(" "));
        }
        if !self.draining.is_empty() {
            let draining: Vec<String> = self.draining.iter().map(usize::to_string).collect();
            let _ = writeln!(out, "--! draining {}", draining.join(" "));
        }
        if self.unwrap {
            let _ = writeln!(out, "--! rebalance unwrap");
        }
        for (file, v) in &self.rotors {
            let _ = writeln!(out, "--! rotor {file} {v}");
        }
        for file in &self.files {
            let _ = writeln!(out, "--! file {file}");
        }
        for (file, attrs) in &self.uniques {
            let _ = writeln!(out, "--! unique {file} {}", attrs.join(" "));
        }
        for (key, group, record) in &self.places {
            let group: Vec<String> = group.iter().map(usize::to_string).collect();
            let _ = writeln!(out, "--! place {key} {}", group.join(","));
            if let Some(record) = record {
                let _ = writeln!(out, "INSERT {record}");
            }
        }
        out
    }

    /// Parse snapshot text produced by [`SnapshotData::to_text`].
    pub fn parse(text: &str) -> Result<SnapshotData> {
        let mut lines = text.lines();
        match lines.next() {
            Some(line) if line.trim() == SNAPSHOT_HEADER => {}
            other => {
                return Err(bad(format!(
                    "not an MBDS snapshot (expected `{SNAPSHOT_HEADER}`, found {other:?})"
                )))
            }
        }
        let mut snap = SnapshotData::default();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(directive) = line.strip_prefix("--! ") {
                let (verb, rest) = directive.split_once(' ').unwrap_or((directive, ""));
                match verb {
                    "backends" => {
                        let mut parts = rest.split(' ');
                        snap.backends = parse_usize(parts.next().unwrap_or(""))?;
                        match (parts.next(), parts.next()) {
                            (Some("replication"), Some(k)) => snap.replication = parse_usize(k)?,
                            _ => return Err(bad("snapshot: malformed backends line")),
                        }
                    }
                    "next-key" => snap.next_key = parse_u64(rest)?,
                    "dead" => {
                        snap.dead = rest
                            .split(' ')
                            .filter(|s| !s.is_empty())
                            .map(parse_usize)
                            .collect::<Result<_>>()?;
                    }
                    "draining" => {
                        snap.draining = rest
                            .split(' ')
                            .filter(|s| !s.is_empty())
                            .map(parse_usize)
                            .collect::<Result<_>>()?;
                    }
                    "rebalance" => match rest {
                        "unwrap" => snap.unwrap = true,
                        other => {
                            return Err(bad(format!("snapshot: unknown rebalance state `{other}`")))
                        }
                    },
                    "rotor" => {
                        let (file, v) =
                            rest.split_once(' ').ok_or_else(|| bad("snapshot: malformed rotor"))?;
                        snap.rotors.push((file.to_owned(), parse_usize(v)?));
                    }
                    "file" => snap.files.push(rest.to_owned()),
                    "unique" => {
                        let (file, attrs) = rest
                            .split_once(' ')
                            .ok_or_else(|| bad("snapshot: malformed unique"))?;
                        snap.uniques.push((
                            file.to_owned(),
                            attrs.split(' ').filter(|s| !s.is_empty()).map(str::to_owned).collect(),
                        ));
                    }
                    "place" => {
                        let (key, group) = rest
                            .split_once(' ')
                            .ok_or_else(|| bad("snapshot: malformed place"))?;
                        let group: Result<Vec<usize>> = group
                            .split(',')
                            .map(|s| {
                                s.parse::<usize>()
                                    .map_err(|_| bad(format!("snapshot: bad group member `{s}`")))
                            })
                            .collect();
                        snap.places.push((parse_u64(key)?, group?, None));
                    }
                    other => return Err(bad(format!("snapshot: unknown directive `{other}`"))),
                }
            } else if let Some(rest) = line.strip_prefix("INSERT ") {
                let record = match parse_request(&format!("INSERT {rest}"))? {
                    Request::Insert { record } => record,
                    _ => return Err(bad("snapshot: record line did not parse")),
                };
                match snap.places.last_mut() {
                    Some((_, _, slot @ None)) => *slot = Some(record),
                    _ => return Err(bad("snapshot: record line without a place directive")),
                }
            } else {
                return Err(bad(format!("snapshot: unrecognized line `{line}`")));
            }
        }
        if snap.backends == 0 {
            return Err(bad("snapshot: missing backends directive"));
        }
        Ok(snap)
    }
}

/// The error an epoch-fenced store operation returns when the fence
/// has passed the writer's epoch.
pub(crate) fn fence_refused(epoch: u64, fence: u64) -> Error {
    Error::Unavailable(format!("controller fenced: epoch {epoch} superseded by {fence}"))
}

/// Where the snapshot and the log physically live.
pub trait LogStore: Send {
    /// Durably append one log line.
    fn append_line(&mut self, line: &str) -> Result<()>;
    /// Durably append several log lines with (at most) one sync — the
    /// group-commit path. The default writes them one at a time; stores
    /// with an expensive sync override this to batch it.
    fn append_lines(&mut self, lines: &[String]) -> Result<()> {
        for line in lines {
            self.append_line(line)?;
        }
        Ok(())
    }
    /// [`LogStore::append_line`], refused when the store's fence epoch
    /// has passed `epoch` — *checked atomically with the append* where
    /// the store can (the model checker's `racy-flush-fence` mutation
    /// shows why: with a separate check-then-act, a promotion landing
    /// between the two lets a demoted primary's line into the new
    /// lineage's log). The default is the best a store without shared
    /// locking can do; shared stores ([`MemLog`], `RemoteLog`) override
    /// it to check under the same lock as the write.
    fn append_line_fenced(&mut self, line: &str, epoch: u64) -> Result<()> {
        let fence = self.fence_epoch()?;
        if fence > epoch {
            return Err(fence_refused(epoch, fence));
        }
        self.append_line(line)
    }
    /// [`LogStore::append_lines`] with the same atomic fence check as
    /// [`LogStore::append_line_fenced`] — the group-commit flush path.
    fn append_lines_fenced(&mut self, lines: &[String], epoch: u64) -> Result<()> {
        let fence = self.fence_epoch()?;
        if fence > epoch {
            return Err(fence_refused(epoch, fence));
        }
        self.append_lines(lines)
    }
    /// [`LogStore::install_snapshot`] with the same atomic fence check
    /// — a demoted primary must not truncate the promoted lineage's
    /// log with a stale compaction.
    fn install_snapshot_fenced(&mut self, text: &str, epoch: u64) -> Result<()> {
        let fence = self.fence_epoch()?;
        if fence > epoch {
            return Err(fence_refused(epoch, fence));
        }
        self.install_snapshot(text)
    }
    /// All log lines appended since the last snapshot install.
    fn log_lines(&self) -> Result<Vec<String>>;
    /// The installed snapshot text, if any.
    fn read_snapshot(&self) -> Result<Option<String>>;
    /// Atomically install a snapshot and truncate the log.
    fn install_snapshot(&mut self, text: &str) -> Result<()>;
    /// True when the store already holds a snapshot or log entries.
    fn has_state(&self) -> Result<bool>;
    /// Drop every log line after the first `keep` — recovery discards a
    /// torn tail so appends that follow are not shadowed by it. Must be
    /// safe under concurrent readers: a [`LogCursor`] tailing the same
    /// store observes either the old or the new log, never a partial
    /// rewrite.
    fn drop_torn_tail(&mut self, keep: usize) -> Result<()>;
    /// The store's fence epoch: the highest controller epoch allowed to
    /// append. Raised by standby promotion; a [`Wal`] at a lower epoch
    /// refuses every subsequent append.
    fn fence_epoch(&self) -> Result<u64>;
    /// Raise the fence epoch (monotonic; lowering is ignored).
    fn set_fence_epoch(&mut self, epoch: u64) -> Result<()>;
    /// Number of snapshot installs this store has seen — a generation
    /// counter that lets a [`LogCursor`] detect that the log was
    /// truncated (and its sequence numbering reset) underneath it.
    fn generation(&self) -> Result<u64>;
}

#[derive(Debug, Default)]
struct MemLogInner {
    snapshot: Option<String>,
    lines: Vec<String>,
    fence: u64,
    generation: u64,
}

/// An in-memory [`LogStore`]. Cloning shares the underlying buffer, so
/// the crash-recovery harness can keep a handle that survives dropping
/// the crashed controller — the in-memory analogue of a disk surviving
/// a process crash.
#[derive(Debug, Clone, Default)]
pub struct MemLog {
    inner: Arc<Mutex<MemLogInner>>,
}

impl MemLog {
    /// An empty in-memory log.
    pub fn new() -> Self {
        MemLog::default()
    }

    /// Number of log lines since the last snapshot install.
    pub fn log_len(&self) -> usize {
        self.inner.lock().expect("memlog lock").lines.len()
    }

    /// Test hook: flip one byte of line `idx` (corruption the reader's
    /// checksum must catch).
    pub fn corrupt_line(&self, idx: usize) {
        let mut inner = self.inner.lock().expect("memlog lock");
        if let Some(line) = inner.lines.get_mut(idx) {
            let mut bytes = std::mem::take(line).into_bytes();
            if let Some(last) = bytes.last_mut() {
                *last ^= 0x01;
            }
            *line = String::from_utf8_lossy(&bytes).into_owned();
        }
    }

    /// Test hook: keep only the first `keep` log lines (a torn tail).
    pub fn truncate_log(&self, keep: usize) {
        self.inner.lock().expect("memlog lock").lines.truncate(keep);
    }

    /// Test hook: append a raw (possibly garbage) line, as a crash
    /// mid-append would leave behind.
    pub fn push_raw_line(&self, line: &str) {
        self.inner.lock().expect("memlog lock").lines.push(line.to_owned());
    }
}

impl LogStore for MemLog {
    fn append_line(&mut self, line: &str) -> Result<()> {
        self.inner.lock().expect("memlog lock").lines.push(line.to_owned());
        Ok(())
    }

    // The fenced variants hold the one lock across check *and* write:
    // a concurrent promotion raises the fence either before this append
    // (refused) or after it (the line is part of the prefix the
    // promotion consumed) — never in between.

    fn append_line_fenced(&mut self, line: &str, epoch: u64) -> Result<()> {
        let mut inner = self.inner.lock().expect("memlog lock");
        if inner.fence > epoch {
            return Err(fence_refused(epoch, inner.fence));
        }
        inner.lines.push(line.to_owned());
        Ok(())
    }

    fn append_lines_fenced(&mut self, lines: &[String], epoch: u64) -> Result<()> {
        let mut inner = self.inner.lock().expect("memlog lock");
        if inner.fence > epoch {
            return Err(fence_refused(epoch, inner.fence));
        }
        inner.lines.extend(lines.iter().cloned());
        Ok(())
    }

    fn install_snapshot_fenced(&mut self, text: &str, epoch: u64) -> Result<()> {
        let mut inner = self.inner.lock().expect("memlog lock");
        if inner.fence > epoch {
            return Err(fence_refused(epoch, inner.fence));
        }
        inner.snapshot = Some(text.to_owned());
        inner.lines.clear();
        inner.generation += 1;
        Ok(())
    }

    fn log_lines(&self) -> Result<Vec<String>> {
        Ok(self.inner.lock().expect("memlog lock").lines.clone())
    }

    fn read_snapshot(&self) -> Result<Option<String>> {
        Ok(self.inner.lock().expect("memlog lock").snapshot.clone())
    }

    fn install_snapshot(&mut self, text: &str) -> Result<()> {
        let mut inner = self.inner.lock().expect("memlog lock");
        inner.snapshot = Some(text.to_owned());
        inner.lines.clear();
        inner.generation += 1;
        Ok(())
    }

    fn has_state(&self) -> Result<bool> {
        let inner = self.inner.lock().expect("memlog lock");
        Ok(inner.snapshot.is_some() || !inner.lines.is_empty())
    }

    fn drop_torn_tail(&mut self, keep: usize) -> Result<()> {
        self.truncate_log(keep);
        Ok(())
    }

    fn fence_epoch(&self) -> Result<u64> {
        Ok(self.inner.lock().expect("memlog lock").fence)
    }

    fn set_fence_epoch(&mut self, epoch: u64) -> Result<()> {
        let mut inner = self.inner.lock().expect("memlog lock");
        inner.fence = inner.fence.max(epoch);
        Ok(())
    }

    fn generation(&self) -> Result<u64> {
        Ok(self.inner.lock().expect("memlog lock").generation)
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Internal(format!("wal: {what} {}: {e}", path.display()))
}

/// A directory-backed [`LogStore`]: `wal.log` (appended and synced per
/// entry) plus `snapshot.mbds` (installed via write-to-temp + atomic
/// rename, after which the log is truncated).
#[derive(Debug)]
pub struct FileLog {
    dir: PathBuf,
    appender: Option<fs::File>,
}

impl FileLog {
    /// Open (creating if needed) the log directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileLog> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        Ok(FileLog { dir, appender: None })
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.mbds")
    }

    fn fence_path(&self) -> PathBuf {
        self.dir.join("fence.epoch")
    }

    fn generation_path(&self) -> PathBuf {
        self.dir.join("snapshot.gen")
    }

    /// Read a small counter file, treating "missing" as zero.
    fn read_counter(&self, path: &Path) -> Result<u64> {
        match fs::read_to_string(path) {
            Ok(text) => parse_u64(text.trim()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(io_err("read", path, e)),
        }
    }

    /// Durably replace a small counter file via write-to-temp + rename.
    fn write_counter(&self, path: &Path, value: u64) -> Result<()> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, format!("{value}\n")).map_err(|e| io_err("write", &tmp, e))?;
        fs::rename(&tmp, path).map_err(|e| io_err("install", path, e))?;
        Ok(())
    }
}

impl LogStore for FileLog {
    fn append_line(&mut self, line: &str) -> Result<()> {
        self.append_lines(&[line.to_owned()])
    }

    fn append_lines(&mut self, lines: &[String]) -> Result<()> {
        if lines.is_empty() {
            return Ok(());
        }
        // Group commit: the whole batch goes out in one write, then
        // pays for one sync.
        let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            buf.push_str(line);
            buf.push('\n');
        }
        let path = self.wal_path();
        if self.appender.is_none() {
            let f = fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(&path)
                .map_err(|e| io_err("open", &path, e))?;
            self.appender = Some(f);
        }
        let f = self.appender.as_mut().expect("appender");
        f.write_all(buf.as_bytes()).map_err(|e| io_err("append", &path, e))?;
        f.sync_data().map_err(|e| io_err("sync", &path, e))?;
        Ok(())
    }

    fn log_lines(&self) -> Result<Vec<String>> {
        let path = self.wal_path();
        match fs::read_to_string(&path) {
            Ok(text) => Ok(text.lines().map(str::to_owned).collect()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(io_err("read", &path, e)),
        }
    }

    fn read_snapshot(&self) -> Result<Option<String>> {
        let path = self.snapshot_path();
        match fs::read_to_string(&path) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", &path, e)),
        }
    }

    fn install_snapshot(&mut self, text: &str) -> Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        fs::write(&tmp, text).map_err(|e| io_err("write", &tmp, e))?;
        let snap = self.snapshot_path();
        fs::rename(&tmp, &snap).map_err(|e| io_err("install", &snap, e))?;
        // Bump the generation *before* truncating: a cursor that sees
        // the old generation with an already-truncated log just finds no
        // new lines; one that sees the new generation reloads the
        // snapshot either way.
        let gen_path = self.generation_path();
        let generation = self.read_counter(&gen_path)? + 1;
        self.write_counter(&gen_path, generation)?;
        // Truncate the log only after the snapshot is durably in place.
        self.appender = None;
        let wal = self.wal_path();
        fs::write(&wal, "").map_err(|e| io_err("truncate", &wal, e))?;
        Ok(())
    }

    fn has_state(&self) -> Result<bool> {
        Ok(self.snapshot_path().exists()
            || self.wal_path().metadata().map(|m| m.len() > 0).unwrap_or(false))
    }

    fn drop_torn_tail(&mut self, keep: usize) -> Result<()> {
        let kept: Vec<String> = self.log_lines()?.into_iter().take(keep).collect();
        self.appender = None;
        let wal = self.wal_path();
        let mut text = kept.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        // Rewrite via temp + atomic rename so a concurrent reader (a
        // standby's [`LogCursor`] tailing this store) observes either
        // the old log or the truncated one, never a half-written file.
        let tmp = self.dir.join("wal.tmp");
        fs::write(&tmp, text).map_err(|e| io_err("write", &tmp, e))?;
        fs::rename(&tmp, &wal).map_err(|e| io_err("truncate", &wal, e))?;
        Ok(())
    }

    fn fence_epoch(&self) -> Result<u64> {
        self.read_counter(&self.fence_path())
    }

    fn set_fence_epoch(&mut self, epoch: u64) -> Result<()> {
        let path = self.fence_path();
        if epoch > self.read_counter(&path)? {
            self.write_counter(&path, epoch)?;
        }
        Ok(())
    }

    fn generation(&self) -> Result<u64> {
        self.read_counter(&self.generation_path())
    }
}

/// Cumulative write-ahead-log I/O counters, surfaced through
/// `Kernel::exec_totals` so experiments can attribute durability cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Entries appended (including those written through a batch).
    pub appends: u64,
    /// Group-commit batches flushed (each pays one sync for many lines).
    pub batches: u64,
    /// Store syncs paid: one per unbatched append plus one per flushed
    /// batch. For [`FileLog`] every sync is an `fsync`.
    pub syncs: u64,
    /// Compacted snapshots installed (each truncates the log).
    pub snapshot_installs: u64,
    /// Largest batch flushed: the most appends a single sync ever paid
    /// for. Under cross-session group commit this is the number of
    /// concurrent committers the one syncer served.
    pub max_batch: u64,
}

/// The write-ahead log: sequence numbering, per-line checksums,
/// snapshot cadence, epoch fencing, and the deterministic crash-point
/// injector used by the recovery harness.
pub struct Wal {
    store: Box<dyn LogStore>,
    /// Sequence number of the next entry; resets to 1 at each snapshot
    /// install (the log only ever holds post-snapshot entries).
    next_seq: u64,
    /// The writing controller's epoch, stamped into every line. Raised
    /// only by standby promotion; an append is refused once the store's
    /// fence epoch exceeds it.
    epoch: u64,
    appends_since_snapshot: u64,
    total_appends: u64,
    snapshot_every: Option<u64>,
    crash_after: Option<u64>,
    crashed: bool,
    /// Encoded lines buffered by an open group-commit batch, written
    /// (and synced) together when the outermost batch commits.
    buffered: Vec<String>,
    /// Open [`begin_batch`](Wal::begin_batch) nesting depth.
    batch_depth: u32,
    stats: WalStats,
}

impl Wal {
    /// A fresh log over `store` (which must not already hold state —
    /// callers enforce that with [`LogStore::has_state`]).
    pub fn create(store: Box<dyn LogStore>) -> Wal {
        Wal {
            store,
            next_seq: 1,
            epoch: 0,
            appends_since_snapshot: 0,
            total_appends: 0,
            snapshot_every: None,
            crash_after: None,
            crashed: false,
            buffered: Vec::new(),
            batch_depth: 0,
            stats: WalStats::default(),
        }
    }

    /// A log resuming an existing store at a known position — the
    /// promotion path, where the standby's cursor already knows the
    /// sequence high-water mark and the new (fenced) epoch, so no
    /// replay pass over the store is needed.
    pub(crate) fn resume(
        store: Box<dyn LogStore>,
        next_seq: u64,
        appends_since_snapshot: u64,
        epoch: u64,
    ) -> Wal {
        let mut wal = Wal::create(store);
        wal.next_seq = next_seq;
        wal.appends_since_snapshot = appends_since_snapshot;
        wal.epoch = epoch;
        wal
    }

    /// Read back a store written by a previous incarnation: the parsed
    /// snapshot (if any), the decoded post-snapshot entries in order,
    /// and a [`Wal`] positioned to continue appending. Entries after
    /// the first checksum, sequence-gap or parse failure are discarded
    /// (a torn tail loses at most the append in flight).
    pub fn load(store: Box<dyn LogStore>) -> Result<(Option<SnapshotData>, Vec<LogRecord>, Wal)> {
        let snapshot = match store.read_snapshot()? {
            Some(text) => Some(SnapshotData::parse(&text)?),
            None => None,
        };
        let mut store = store;
        let lines = store.log_lines()?;
        let mut entries = Vec::new();
        let mut next_seq = 1u64;
        let mut epoch = store.fence_epoch()?;
        for line in &lines {
            let Ok((seq, line_epoch, rec)) = decode_line(line) else { break };
            if seq != next_seq {
                break; // sequence gap: treat the rest as torn
            }
            entries.push(rec);
            next_seq += 1;
            epoch = epoch.max(line_epoch);
        }
        if entries.len() < lines.len() {
            // Physically drop the torn tail so entries appended after
            // this recovery are not shadowed by it on the next one.
            store.drop_torn_tail(entries.len())?;
        }
        let appends = entries.len() as u64;
        let mut wal = Wal::create(store);
        wal.next_seq = next_seq;
        wal.appends_since_snapshot = appends;
        // Continue at the highest epoch the store has seen (line stamps
        // or the fence itself) so recovery after a promotion keeps
        // writing at the promoted epoch rather than getting fenced.
        wal.epoch = epoch;
        Ok((snapshot, entries, wal))
    }

    /// Durably append one entry. With a crash point armed, the Nth
    /// append **writes the entry durably and then fails** — modelling a
    /// controller that dies immediately after its log write. Every
    /// append after the crash point fails without writing.
    pub fn append(&mut self, rec: &LogRecord) -> Result<()> {
        if self.crashed {
            return Err(Error::Unavailable("controller crashed (injected)".into()));
        }
        // Epoch fence: once a standby has promoted (raising the store's
        // fence), appends from this demoted log are refused *before*
        // anything is written — the store never sees a stale record.
        // The authoritative check is the store-side one, atomic with the
        // write itself (and a fenced batch flush retracts every mutating
        // result of the batch), so inside an open batch only the first
        // buffered append pays for this early read of the fence: it
        // keeps an already-fenced batch from buffering at all.
        if self.batch_depth == 0 || self.buffered.is_empty() {
            let fence = self.store.fence_epoch()?;
            if fence > self.epoch {
                return Err(fence_refused(self.epoch, fence));
            }
        }
        // `{crc:08x} {seq} {epoch} {payload}`, built in one buffer: the
        // checksum covers everything after its own field and space.
        let mut line = String::with_capacity(64);
        let _ = write!(line, "00000000 {} {} ", self.next_seq, self.epoch);
        rec.encode_into(&mut line);
        let crc = crc32(&line.as_bytes()[9..]);
        let hex: [u8; 8] =
            std::array::from_fn(|i| b"0123456789abcdef"[(crc >> (28 - 4 * i)) as usize & 0xF]);
        line.replace_range(..8, std::str::from_utf8(&hex).expect("hex digits are ASCII"));
        if self.batch_depth > 0 {
            self.buffered.push(line);
        } else {
            self.store.append_line_fenced(&line, self.epoch)?;
            self.stats.syncs += 1;
        }
        self.stats.appends += 1;
        self.next_seq += 1;
        self.appends_since_snapshot += 1;
        self.total_appends += 1;
        if self.crash_after.is_some_and(|n| self.total_appends >= n) {
            // The crashing append must still be durable (the injector
            // models a controller dying right *after* its log write),
            // so a pending batch is flushed through this entry first.
            let flush = self.flush_buffered();
            self.crashed = true;
            flush?;
            return Err(Error::Unavailable(format!(
                "injected controller crash after WAL append {}",
                self.total_appends
            )));
        }
        Ok(())
    }

    /// Open a group-commit batch: subsequent appends are buffered and
    /// written with one sync when the outermost batch commits. Batches
    /// nest (a transaction that triggers a backend restart, say).
    ///
    /// The batch is agnostic about *whose* appends it buffers: a
    /// single transaction's, or — under the controller's batch
    /// scheduler — one request from each of many concurrent sessions,
    /// whose committers all park on the open batch while the one
    /// closing caller pays the sync for all of them (cross-session
    /// group commit). Crash soundness is unchanged either way: an
    /// armed crash point flushes the open batch *through* the crashing
    /// entry (see [`Wal::append`]), so the durable log is always an
    /// admission-order prefix.
    pub fn begin_batch(&mut self) {
        self.batch_depth += 1;
    }

    /// Close a batch; the outermost close flushes the buffered appends
    /// durably in one [`LogStore::append_lines`] call.
    pub fn commit_batch(&mut self) -> Result<()> {
        self.batch_depth = self.batch_depth.saturating_sub(1);
        if self.batch_depth == 0 && !self.crashed {
            self.flush_buffered()?;
        }
        Ok(())
    }

    fn flush_buffered(&mut self) -> Result<()> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        // The fence is re-checked at flush time, atomically with the
        // write: a promotion that landed between buffering and commit
        // must keep these lines out of the store (the demoted primary
        // leaves no post-fence records), and a promotion landing
        // *during* the flush must land on one side of it, not inside.
        let lines = std::mem::take(&mut self.buffered);
        self.stats.batches += 1;
        self.stats.syncs += 1;
        self.stats.max_batch = self.stats.max_batch.max(lines.len() as u64);
        self.store.append_lines_fenced(&lines, self.epoch)
    }

    /// Install a compacted snapshot and truncate the log.
    pub fn install_snapshot(&mut self, text: &str) -> Result<()> {
        // Entries still buffered by an open batch describe mutations the
        // snapshot already reflects; installing it makes them moot.
        self.buffered.clear();
        self.store.install_snapshot_fenced(text, self.epoch)?;
        self.stats.snapshot_installs += 1;
        self.appends_since_snapshot = 0;
        self.next_seq = 1;
        Ok(())
    }

    /// Raise this log's epoch to at least `epoch` and durably raise the
    /// store's fence to match. Cold recovery calls this to fence out
    /// every earlier incarnation writing the same store: without it, a
    /// recovered controller adopts the highest epoch the store has seen
    /// and *shares* it with whoever stamped it — the model checker's
    /// `recover-without-refence` mutation produces exactly that
    /// split-brain trace.
    pub fn refence(&mut self, epoch: u64) -> Result<()> {
        self.epoch = self.epoch.max(epoch);
        self.store.set_fence_epoch(self.epoch)
    }

    /// Snapshot every `every` appends (0 disables).
    pub fn set_snapshot_every(&mut self, every: u64) {
        self.snapshot_every = (every > 0).then_some(every);
    }

    /// Arm the crash-point injector: the `n`th append (counted across
    /// the log's lifetime, snapshots included) succeeds durably and
    /// then fails the controller.
    pub fn set_crash_after(&mut self, n: u64) {
        self.crash_after = Some(n);
    }

    /// True once the armed crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Appends performed over this log's lifetime.
    pub fn total_appends(&self) -> u64 {
        self.total_appends
    }

    /// This log's controller epoch (stamped into every line).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// True when the snapshot cadence says it is time to compact.
    pub fn needs_snapshot(&self) -> bool {
        !self.crashed && self.snapshot_every.is_some_and(|n| self.appends_since_snapshot >= n)
    }
}

fn decode_line(line: &str) -> Result<(u64, u64, LogRecord)> {
    let (crc_s, body) = line.split_once(' ').ok_or_else(|| bad("wal: malformed line"))?;
    let crc = u32::from_str_radix(crc_s, 16).map_err(|_| bad("wal: malformed checksum"))?;
    if crc32(body.as_bytes()) != crc {
        return Err(bad("wal: checksum mismatch"));
    }
    let (seq_s, rest) = body.split_once(' ').ok_or_else(|| bad("wal: missing seq"))?;
    let (epoch_s, payload) = rest.split_once(' ').ok_or_else(|| bad("wal: missing epoch"))?;
    Ok((parse_u64(seq_s)?, parse_u64(epoch_s)?, LogRecord::decode(payload)?))
}

/// What one [`LogCursor::poll`] observed.
#[derive(Debug, Clone, PartialEq)]
pub enum CursorUpdate {
    /// Fresh decoded log entries, in order. Empty when the cursor is
    /// caught up.
    Entries(Vec<LogRecord>),
    /// The store installed a snapshot since the last poll: the log was
    /// truncated and its sequence numbering reset, so the follower must
    /// rebuild from this snapshot text before consuming further
    /// entries.
    Snapshot(String),
}

/// An incremental reader tailing a [`LogStore`] — the shipping half of
/// the standby subsystem. Each [`poll`](LogCursor::poll) consumes
/// whatever complete, in-sequence entries the store has gained since
/// the last poll. A line that fails checksum or sequence checks stops
/// the poll *without* being consumed: it may be a torn tail (junk
/// forever) or the first half of an in-flight group-commit batch
/// (valid on the next poll), and the cursor cannot tell yet — so it
/// simply retries from the same spot next time.
pub struct LogCursor {
    store: Box<dyn LogStore>,
    /// Store generation as of the last poll; starts at a sentinel no
    /// store reports, so the first poll always loads the snapshot (if
    /// any).
    generation: u64,
    /// Log lines consumed from the current generation.
    consumed: usize,
    next_seq: u64,
    max_epoch: u64,
    bytes_behind: u64,
}

impl LogCursor {
    /// A cursor positioned at the very beginning of `store`. The first
    /// [`poll`](LogCursor::poll) reports the installed snapshot (when
    /// one exists) before any log entries.
    pub fn new(store: Box<dyn LogStore>) -> LogCursor {
        LogCursor {
            store,
            generation: u64::MAX,
            consumed: 0,
            next_seq: 1,
            max_epoch: 0,
            bytes_behind: 0,
        }
    }

    /// Read whatever the store has gained since the last poll. Returns
    /// `CursorUpdate::Snapshot` when the store's snapshot generation
    /// changed (the follower must rebuild), otherwise the fresh
    /// entries (possibly none).
    pub fn poll(&mut self) -> Result<CursorUpdate> {
        let lines = loop {
            let generation = self.store.generation()?;
            if generation != self.generation {
                // The log was truncated (snapshot install) since the
                // last poll — or this is the first poll ever. Restart
                // from the snapshot; sequence numbering reset with the
                // truncation.
                self.generation = generation;
                self.consumed = 0;
                self.next_seq = 1;
                self.bytes_behind = 0;
                if let Some(text) = self.store.read_snapshot()? {
                    return Ok(CursorUpdate::Snapshot(text));
                }
                // No snapshot installed yet (fresh store): fall through
                // and consume log entries directly.
            }
            let lines = self.store.log_lines()?;
            // Generation sandwich: a snapshot install landing between
            // the two reads above truncates the log and resets its
            // sequence numbering, so `lines` belongs to a generation
            // this cursor has not resynced to — its line at our
            // `consumed` offset can even carry the sequence number we
            // expect next, which a naïve read would consume as a
            // continuation, silently skipping the snapshot (and every
            // compacted entry in it). Re-read the generation and retry
            // until the pair is consistent.
            if self.store.generation()? == generation {
                break lines;
            }
        };
        let mut entries = Vec::new();
        let mut behind = 0u64;
        for line in lines.iter().skip(self.consumed) {
            match decode_line(line) {
                Ok((seq, epoch, rec)) if seq == self.next_seq => {
                    entries.push(rec);
                    self.consumed += 1;
                    self.next_seq += 1;
                    self.max_epoch = self.max_epoch.max(epoch);
                }
                // Torn tail or in-flight batch: stop here, do not
                // consume — the line may become valid by the next poll.
                _ => {
                    behind = lines
                        .iter()
                        .skip(self.consumed)
                        .map(|l| l.len() as u64 + 1)
                        .sum();
                    break;
                }
            }
        }
        self.bytes_behind = behind;
        Ok(CursorUpdate::Entries(entries))
    }

    /// Log lines consumed from the current generation.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Sequence number the next consumed entry must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest epoch stamp observed across all consumed entries.
    pub fn max_epoch(&self) -> u64 {
        self.max_epoch
    }

    /// Bytes of unconsumed log observed by the last poll (stuck lines
    /// the cursor is waiting on — the replication-lag gauge).
    pub fn bytes_behind(&self) -> u64 {
        self.bytes_behind
    }

    /// Surrender the underlying store (the promotion path takes it over
    /// for writing).
    pub fn into_store(self) -> Box<dyn LogStore> {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abdl::{Record, Value};

    fn rec(file: &str, v: i64) -> Record {
        Record::from_pairs([("FILE", Value::str(file))]).with(file.to_owned(), Value::Int(v))
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_table_matches_the_bitwise_form() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let mut rng = abdl::prng::Prng::seed_from_u64(0xC3C3_2C32);
        for _ in 0..2000 {
            let len = rng.gen_range(0, 300) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0, 256) as u8).collect();
            assert_eq!(crc32(&bytes), bitwise(&bytes), "{bytes:?}");
        }
    }

    #[test]
    fn every_entry_kind_round_trips() {
        let entries = vec![
            LogRecord::CreateFile { name: "university.course".into() },
            LogRecord::Unique { file: "f".into(), attrs: vec!["a".into(), "b".into()] },
            LogRecord::ReserveKey { key: 42 },
            LogRecord::Alloc { key: 7, file: "f".into() },
            LogRecord::Insert {
                key: 9,
                group: vec![2, 3],
                record: rec("f", 1).with("s", Value::str("it's quoted")),
            },
            LogRecord::Exec {
                request: parse_request("DELETE ((FILE = f) and (x = 1))").unwrap(),
            },
            LogRecord::Dead { backend: 3 },
            LogRecord::RestartBegin { backend: 0 },
            LogRecord::RestartEnd { backend: 0 },
            LogRecord::MoveBegin { from: vec![3, 0], to: vec![3, 4], keys: vec![7, 12, 40] },
            LogRecord::MoveEnd { from: vec![3, 0], to: vec![3, 4] },
            LogRecord::AddBackend { backend: 4 },
            LogRecord::AddEnd { backend: 4 },
            LogRecord::DrainBegin { backend: 1 },
            LogRecord::DrainEnd { backend: 1 },
        ];
        for e in entries {
            let decoded = LogRecord::decode(&e.encode()).unwrap();
            assert_eq!(decoded, e, "round trip failed for {e:?}");
        }
    }

    #[test]
    fn wal_appends_and_loads_with_sequence_continuity() {
        let log = MemLog::new();
        let mut wal = Wal::create(Box::new(log.clone()));
        for i in 0..5 {
            wal.append(&LogRecord::ReserveKey { key: i }).unwrap();
        }
        let (snap, entries, wal2) = Wal::load(Box::new(log)).unwrap();
        assert!(snap.is_none());
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[3], LogRecord::ReserveKey { key: 3 });
        // The loaded wal continues the sequence — appending more and
        // reloading sees all entries.
        let mut wal2 = wal2;
        wal2.append(&LogRecord::Dead { backend: 1 }).unwrap();
        drop(wal);
        assert_eq!(wal2.next_seq, 7);
    }

    #[test]
    fn corruption_and_torn_tails_stop_the_replay_cleanly() {
        let log = MemLog::new();
        let mut wal = Wal::create(Box::new(log.clone()));
        for i in 0..10 {
            wal.append(&LogRecord::ReserveKey { key: i }).unwrap();
        }
        // A flipped byte in entry 6 discards it and everything after.
        log.corrupt_line(6);
        let (_, entries, _) = Wal::load(Box::new(log.clone())).unwrap();
        assert_eq!(entries.len(), 6);
        // A torn tail (partial final line) loses only that line.
        log.truncate_log(4);
        let (_, entries, _) = Wal::load(Box::new(log)).unwrap();
        assert_eq!(entries.len(), 4);
    }

    #[test]
    fn crash_point_fires_after_a_durable_append() {
        let log = MemLog::new();
        let mut wal = Wal::create(Box::new(log.clone()));
        wal.set_crash_after(3);
        wal.append(&LogRecord::ReserveKey { key: 0 }).unwrap();
        wal.append(&LogRecord::ReserveKey { key: 1 }).unwrap();
        let err = wal.append(&LogRecord::ReserveKey { key: 2 }).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)));
        assert!(wal.crashed());
        // The crashing append is on disk; later appends are refused and
        // leave no trace.
        assert!(wal.append(&LogRecord::ReserveKey { key: 3 }).is_err());
        assert_eq!(log.log_len(), 3);
    }

    #[test]
    fn snapshot_text_round_trips_and_is_deterministic() {
        let snap = SnapshotData {
            backends: 4,
            replication: 2,
            next_key: 17,
            dead: vec![1, 3],
            draining: vec![2],
            unwrap: true,
            rotors: vec![("a".into(), 2), ("b".into(), 0)],
            files: vec!["a".into(), "b".into()],
            uniques: vec![("a".into(), vec!["name".into()])],
            places: vec![
                (3, vec![0, 1], Some(rec("a", 3))),
                (5, vec![1, 2], None), // every replica dead: mapping survives, data does not
            ],
        };
        let text = snap.to_text();
        assert_eq!(SnapshotData::parse(&text).unwrap(), snap);
        assert_eq!(snap.to_text(), text, "rendering is deterministic");
        assert!(SnapshotData::parse("not a snapshot").is_err());
    }

    #[test]
    fn snapshot_install_truncates_and_resets_sequence() {
        let log = MemLog::new();
        let mut wal = Wal::create(Box::new(log.clone()));
        wal.set_snapshot_every(3);
        for i in 0..3 {
            assert!(!wal.needs_snapshot());
            wal.append(&LogRecord::ReserveKey { key: i }).unwrap();
        }
        assert!(wal.needs_snapshot());
        let snap = SnapshotData { backends: 2, replication: 1, ..Default::default() };
        wal.install_snapshot(&snap.to_text()).unwrap();
        assert!(!wal.needs_snapshot());
        assert_eq!(log.log_len(), 0);
        wal.append(&LogRecord::ReserveKey { key: 9 }).unwrap();
        let (loaded, entries, _) = Wal::load(Box::new(log)).unwrap();
        assert_eq!(loaded.unwrap().backends, 2);
        assert_eq!(entries, vec![LogRecord::ReserveKey { key: 9 }]);
    }

    #[test]
    fn fence_refuses_stale_epoch_appends_before_they_reach_the_store() {
        let log = MemLog::new();
        let mut wal = Wal::create(Box::new(log.clone()));
        wal.append(&LogRecord::ReserveKey { key: 0 }).unwrap();
        // A promotion elsewhere raises the store fence past our epoch 0.
        let mut fencer: Box<dyn LogStore> = Box::new(log.clone());
        fencer.set_fence_epoch(1).unwrap();
        let err = wal.append(&LogRecord::ReserveKey { key: 1 }).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "fenced append must fail: {err:?}");
        assert_eq!(log.log_len(), 1, "the fenced append left no trace");
        // Batched appends are fenced at flush time too.
        wal.begin_batch();
        assert!(wal.append(&LogRecord::ReserveKey { key: 2 }).is_err());
        assert!(wal.commit_batch().is_ok(), "empty flush after refusal");
        assert_eq!(log.log_len(), 1);
        // Snapshot installs from the demoted writer are refused as well.
        let snap = SnapshotData { backends: 2, replication: 1, ..Default::default() };
        assert!(wal.install_snapshot(&snap.to_text()).is_err());
        assert_eq!(log.log_len(), 1);
    }

    #[test]
    fn fence_raise_is_monotonic_and_survives_load() {
        let log = MemLog::new();
        let mut store: Box<dyn LogStore> = Box::new(log.clone());
        store.set_fence_epoch(3).unwrap();
        store.set_fence_epoch(1).unwrap(); // lowering is ignored
        assert_eq!(store.fence_epoch().unwrap(), 3);
        // A Wal loaded from a fenced store adopts the fence epoch and
        // keeps writing (it *is* the promoted lineage).
        let (_, _, mut wal) = Wal::load(Box::new(log.clone())).unwrap();
        assert_eq!(wal.epoch(), 3);
        wal.append(&LogRecord::ReserveKey { key: 7 }).unwrap();
        let (_, entries, wal2) = Wal::load(Box::new(log)).unwrap();
        assert_eq!(entries, vec![LogRecord::ReserveKey { key: 7 }]);
        assert_eq!(wal2.epoch(), 3);
    }

    #[test]
    fn wal_counts_appends_batches_syncs_and_snapshots() {
        let log = MemLog::new();
        let mut wal = Wal::create(Box::new(log.clone()));
        wal.append(&LogRecord::ReserveKey { key: 0 }).unwrap();
        wal.begin_batch();
        wal.append(&LogRecord::ReserveKey { key: 1 }).unwrap();
        wal.append(&LogRecord::ReserveKey { key: 2 }).unwrap();
        wal.commit_batch().unwrap();
        let snap = SnapshotData { backends: 2, replication: 1, ..Default::default() };
        wal.install_snapshot(&snap.to_text()).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.syncs, 2, "one unbatched append + one batch flush");
        assert_eq!(stats.snapshot_installs, 1);
    }

    #[test]
    fn cursor_tails_the_log_incrementally() {
        let log = MemLog::new();
        let mut wal = Wal::create(Box::new(log.clone()));
        let mut cursor = LogCursor::new(Box::new(log.clone()));
        // Fresh store: first poll finds no snapshot and no entries.
        assert_eq!(cursor.poll().unwrap(), CursorUpdate::Entries(vec![]));
        wal.append(&LogRecord::ReserveKey { key: 0 }).unwrap();
        wal.append(&LogRecord::ReserveKey { key: 1 }).unwrap();
        assert_eq!(
            cursor.poll().unwrap(),
            CursorUpdate::Entries(vec![
                LogRecord::ReserveKey { key: 0 },
                LogRecord::ReserveKey { key: 1 },
            ])
        );
        // Caught up: the next poll is empty, and position advanced.
        assert_eq!(cursor.poll().unwrap(), CursorUpdate::Entries(vec![]));
        assert_eq!(cursor.consumed(), 2);
        assert_eq!(cursor.next_seq(), 3);
        wal.append(&LogRecord::Dead { backend: 1 }).unwrap();
        assert_eq!(
            cursor.poll().unwrap(),
            CursorUpdate::Entries(vec![LogRecord::Dead { backend: 1 }])
        );
    }

    #[test]
    fn cursor_waits_out_a_torn_tail_without_consuming_it() {
        let log = MemLog::new();
        let mut wal = Wal::create(Box::new(log.clone()));
        wal.append(&LogRecord::ReserveKey { key: 0 }).unwrap();
        wal.append(&LogRecord::ReserveKey { key: 1 }).unwrap();
        log.corrupt_line(1);
        let mut cursor = LogCursor::new(Box::new(log.clone()));
        assert_eq!(
            cursor.poll().unwrap(),
            CursorUpdate::Entries(vec![LogRecord::ReserveKey { key: 0 }])
        );
        assert!(cursor.bytes_behind() > 0, "the stuck line counts as lag");
        // Recovery truncates the torn tail; the cursor just stops seeing
        // the junk and resumes cleanly with post-recovery appends.
        let (_, entries, mut wal2) = Wal::load(Box::new(log.clone())).unwrap();
        assert_eq!(entries.len(), 1);
        wal2.append(&LogRecord::ReserveKey { key: 9 }).unwrap();
        assert_eq!(
            cursor.poll().unwrap(),
            CursorUpdate::Entries(vec![LogRecord::ReserveKey { key: 9 }])
        );
        assert_eq!(cursor.bytes_behind(), 0);
    }

    #[test]
    fn cursor_resets_across_a_snapshot_install() {
        let log = MemLog::new();
        let mut wal = Wal::create(Box::new(log.clone()));
        let mut cursor = LogCursor::new(Box::new(log.clone()));
        wal.append(&LogRecord::ReserveKey { key: 0 }).unwrap();
        assert_eq!(
            cursor.poll().unwrap(),
            CursorUpdate::Entries(vec![LogRecord::ReserveKey { key: 0 }])
        );
        // Install a snapshot: the log truncates and seq restarts at 1 —
        // the cursor must notice and hand the follower the snapshot.
        let snap = SnapshotData { backends: 2, replication: 1, next_key: 5, ..Default::default() };
        wal.install_snapshot(&snap.to_text()).unwrap();
        wal.append(&LogRecord::ReserveKey { key: 5 }).unwrap();
        match cursor.poll().unwrap() {
            CursorUpdate::Snapshot(text) => {
                assert_eq!(SnapshotData::parse(&text).unwrap(), snap);
            }
            other => panic!("expected snapshot reset, got {other:?}"),
        }
        assert_eq!(
            cursor.poll().unwrap(),
            CursorUpdate::Entries(vec![LogRecord::ReserveKey { key: 5 }])
        );
    }

    #[test]
    fn cursor_tracks_the_highest_epoch_stamp() {
        let log = MemLog::new();
        let mut wal = Wal::resume(Box::new(log.clone()), 1, 0, 4);
        wal.append(&LogRecord::ReserveKey { key: 0 }).unwrap();
        let mut cursor = LogCursor::new(Box::new(log));
        cursor.poll().unwrap();
        assert_eq!(cursor.max_epoch(), 4);
    }

    #[test]
    fn file_log_drop_torn_tail_is_atomic_under_a_concurrent_cursor() {
        let dir =
            std::env::temp_dir().join(format!("mbds-wal-tail-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut wal = Wal::create(Box::new(FileLog::open(&dir).unwrap()));
            for i in 0..4 {
                wal.append(&LogRecord::ReserveKey { key: i }).unwrap();
            }
        }
        // Simulate a crash mid-append: hand-mangle the final line.
        let wal_path = dir.join("wal.log");
        let mut text = fs::read_to_string(&wal_path).unwrap();
        text.truncate(text.len() - 10); // tear the last line
        fs::write(&wal_path, text).unwrap();
        // A standby cursor holds the store open across the recovery that
        // discards the tail.
        let mut cursor = LogCursor::new(Box::new(FileLog::open(&dir).unwrap()));
        match cursor.poll().unwrap() {
            CursorUpdate::Entries(entries) => assert_eq!(entries.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        assert!(cursor.bytes_behind() > 0);
        let (_, entries, mut wal) = Wal::load(Box::new(FileLog::open(&dir).unwrap())).unwrap();
        assert_eq!(entries.len(), 3, "recovery keeps the intact prefix");
        // The rewrite went through a temp file + rename: no half-written
        // wal.log was ever observable, and no temp file is left behind.
        assert!(!dir.join("wal.tmp").exists());
        // The cursor keeps tailing seamlessly after the truncation.
        wal.append(&LogRecord::ReserveKey { key: 9 }).unwrap();
        match cursor.poll().unwrap() {
            CursorUpdate::Entries(entries) => {
                assert_eq!(entries, vec![LogRecord::ReserveKey { key: 9 }]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cursor.bytes_behind(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_log_round_trips_through_a_directory() {
        let dir = std::env::temp_dir().join(format!("mbds-wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut wal = Wal::create(Box::new(FileLog::open(&dir).unwrap()));
            wal.append(&LogRecord::CreateFile { name: "f".into() }).unwrap();
            wal.append(&LogRecord::Insert { key: 1, group: vec![0], record: rec("f", 1) })
                .unwrap();
        }
        let store = FileLog::open(&dir).unwrap();
        assert!(store.has_state().unwrap());
        let (snap, entries, mut wal) = Wal::load(Box::new(store)).unwrap();
        assert!(snap.is_none());
        assert_eq!(entries.len(), 2);
        // Install a snapshot; reloading sees it and an empty log.
        let snap = SnapshotData { backends: 3, replication: 2, ..Default::default() };
        wal.install_snapshot(&snap.to_text()).unwrap();
        let (loaded, entries, _) = Wal::load(Box::new(FileLog::open(&dir).unwrap())).unwrap();
        assert_eq!(loaded.unwrap(), snap);
        assert!(entries.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
