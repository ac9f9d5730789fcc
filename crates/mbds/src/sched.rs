//! Request footprint classification for the controller's batch
//! scheduler.
//!
//! When several sessions' requests are admitted together
//! (`Kernel::execute_batch`), the controller wants to keep more than
//! one of them in flight on the backend bus at a time. That is safe
//! exactly when the requests *commute*: executing them concurrently
//! (in any interleaving the per-backend FIFO channels allow) produces
//! the same state as executing them in admission order. This module
//! computes a conservative **footprint** per request — the kernel
//! files it touches, and the unique-index tuples it would claim (an
//! insert) or has fully pinned with equality predicates (a read) — and
//! a pairwise [`Footprint::conflicts`] predicate:
//!
//! * two **reads** never conflict — reads change nothing, so any
//!   interleaving is equivalent to admission order, *whatever* their
//!   scope (even two broadcast reads commute);
//! * requests on **disjoint files** never conflict;
//! * two **inserts into the same file** conflict only when they claim
//!   the same `DUPLICATES ARE NOT ALLOWED` tuple (the unique check is
//!   the one piece of controller state an insert reads before its
//!   effects land);
//! * a **key-scoped read** (every disjunct pins a full unique group
//!   with equality predicates) commutes with same-file inserts whose
//!   claimed tuples are disjoint from the pinned ones: the inserted
//!   record cannot satisfy the read's equalities, so the read's answer
//!   is identical whether it runs before or after the insert — this is
//!   what lets **mixed read/insert flights** form;
//! * any *write* with a **broadcast** footprint (a record without a
//!   `FILE` keyword), or a write sharing a file with a broadcast read,
//!   conflicts — an unscoped footprint must observe (or mutate) the
//!   whole cluster at a well-defined point in the admission order;
//! * every other write overlap (delete/update vs. anything on a shared
//!   file) conflicts.
//!
//! The scheduler never reorders: a conflicting request simply closes
//! the current flight and waits for it to drain, so execution is
//! always equivalent to the serial admission order — the property
//! `tests/concurrent_equivalence.rs` pins.
//!
//! [`Footprint::conflicts`] is the specification; admission does not
//! walk it pairwise. A [`Flight`] keeps the *union* of its members'
//! footprints — whether an insert or a broadcast read is aboard, the
//! inserts' files and claimed tuples, the files some read touches
//! without key-scoping them, and the reads' pinned tuples — and
//! [`Flight::admits`] answers with a few hash lookups, O(1) in the
//! flight length. It is exact for the members a flight can hold
//! (inserts and retrieves) because every key tuple names its file and
//! an insert's footprint covers exactly one file: the pairwise tests
//! "shares a file" and "claimed/pinned tuples intersect" are then
//! membership tests in the union, and none of them needs to know
//! *which* member supplied the matching file or tuple.
//! `tests/sched_prop.rs` checks `admits` against `!any(conflicts)` at
//! every step of seeded random flights.
//!
//! [`carve`] is the one carving loop: both hosts
//! (`Controller::execute_batch` and `SimCluster::execute_batch`) plan
//! their batches with it and differ only in the "may this request
//! fly" rule they pass and in how they execute a flight.

use abdl::{ExecTotals, Request, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;

/// The unique-constraint registry the classifier consults: per file,
/// the declared `DUPLICATES ARE NOT ALLOWED` attribute groups, in
/// declaration order (group index = position).
pub type UniqueGroups = HashMap<String, Vec<Vec<String>>>;

/// What one request touches, as seen by the batch scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    /// Kernel files named by the request's queries (or the inserted
    /// record's `FILE` keyword).
    pub files: BTreeSet<String>,
    /// Unique-index tuples this request touches — `(file, group index,
    /// value tuple)`. For an insert: one entry per constraint group of
    /// the target file whose attributes the record all carries. For a
    /// read: one entry per disjunct that pins a full constraint group
    /// with equality predicates.
    pub keys: BTreeSet<(String, usize, Vec<Value>)>,
    /// Files on which a *read* is key-scoped: every disjunct naming
    /// the file pins a full unique group with (non-null) equality
    /// predicates, so the read can only ever see the records those
    /// tuples name. Always empty for writes.
    pub key_scoped: BTreeSet<String>,
    /// True for mutations (insert, delete, update).
    pub write: bool,
    /// True for inserts specifically (the only write whose same-file
    /// overlap can be refined by key disjointness).
    pub insert: bool,
    /// True when the footprint cannot be scoped to `files` — the
    /// request must serialize against everything.
    pub broadcast: bool,
}

impl Footprint {
    /// Classify `request` against the declared unique groups.
    pub fn of(request: &Request, uniques: &UniqueGroups) -> Footprint {
        match request {
            Request::Insert { record } => {
                let Some(file) = record.file() else {
                    return Footprint::broadcast_write();
                };
                let mut keys = BTreeSet::new();
                for (gi, group) in
                    uniques.get(file).map(Vec::as_slice).unwrap_or_default().iter().enumerate()
                {
                    // Groups with absent attributes are not checked by
                    // the kernel, so they claim nothing.
                    if group.iter().all(|a| record.get(a).is_some()) {
                        let tuple: Vec<Value> =
                            group.iter().map(|a| record.get_or_null(a).clone()).collect();
                        keys.insert((file.to_owned(), gi, tuple));
                    }
                }
                Footprint {
                    files: BTreeSet::from([file.to_owned()]),
                    keys,
                    key_scoped: BTreeSet::new(),
                    write: true,
                    insert: true,
                    broadcast: false,
                }
            }
            Request::Delete { query } => Footprint::of_query(&[query], true, uniques),
            Request::Update { query, .. } => Footprint::of_query(&[query], true, uniques),
            Request::Retrieve { query, .. } => Footprint::of_query(&[query], false, uniques),
            Request::RetrieveCommon { left, right, .. } => {
                Footprint::of_query(&[left, right], false, uniques)
            }
        }
    }

    fn of_query(queries: &[&abdl::Query], write: bool, uniques: &UniqueGroups) -> Footprint {
        let mut files = BTreeSet::new();
        let mut keys = BTreeSet::new();
        // Files some disjunct touches without pinning a unique group:
        // they can never be key-scoped.
        let mut loose = BTreeSet::new();
        for q in queries {
            for conj in &q.disjuncts {
                let Some(file) = conj.file() else {
                    return Footprint { write, ..Footprint::broadcast_write() };
                };
                files.insert(file.to_owned());
                match (!write).then(|| Footprint::pinned_tuple(file, conj, uniques)).flatten() {
                    Some((gi, tuple)) => {
                        keys.insert((file.to_owned(), gi, tuple));
                    }
                    None => {
                        loose.insert(file.to_owned());
                    }
                }
            }
        }
        let key_scoped = files.difference(&loose).cloned().collect();
        Footprint { files, keys, key_scoped, write, insert: false, broadcast: false }
    }

    /// The first `DUPLICATES ARE NOT ALLOWED` group of `file` whose
    /// every attribute `conj` pins with a non-null equality predicate —
    /// the same fast-path condition the controller's key-scoped router
    /// uses. A pinned disjunct can only match the records holding
    /// exactly that tuple (further predicates only narrow the answer).
    fn pinned_tuple(
        file: &str,
        conj: &abdl::Conjunction,
        uniques: &UniqueGroups,
    ) -> Option<(usize, Vec<Value>)> {
        for (gi, group) in uniques.get(file)?.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let tuple: Option<Vec<Value>> = group
                .iter()
                .map(|a| {
                    conj.predicates
                        .iter()
                        .find(|p| p.attr == *a && p.op == abdl::RelOp::Eq)
                        .map(|p| p.value.clone())
                })
                .collect();
            // A null pin is not a scope: a record *lacking* the
            // attribute claims no tuple for the group yet could still
            // satisfy a null equality.
            let Some(tuple) = tuple else { continue };
            if tuple.iter().any(|v| matches!(v, Value::Null)) {
                continue;
            }
            return Some((gi, tuple));
        }
        None
    }

    fn broadcast_write() -> Footprint {
        Footprint {
            files: BTreeSet::new(),
            keys: BTreeSet::new(),
            key_scoped: BTreeSet::new(),
            write: true,
            insert: false,
            broadcast: true,
        }
    }

    /// True when this request and `other` must not be in flight
    /// together.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        // Reads never conflict with reads: they change nothing, so
        // every interleaving is equivalent to admission order — even
        // for two broadcast reads, whose scope is unknown but whose
        // effect is none.
        if !self.write && !other.write {
            return false;
        }
        if self.broadcast || other.broadcast {
            return true;
        }
        if self.files.is_disjoint(&other.files) {
            return false;
        }
        if self.insert && other.insert {
            // Same file, but inserts claiming disjoint unique tuples
            // commute: each gets its own fresh database key, and the
            // unique check of one cannot observe the other.
            return !self.keys.is_disjoint(&other.keys);
        }
        // Insert vs. read: commute when the read is key-scoped on
        // every shared file and the insert's claimed tuples miss every
        // pinned one — the new record cannot satisfy the read's
        // equality predicates, so the read's answer is order-blind.
        let (ins, read) = if self.insert && !other.write {
            (self, other)
        } else if other.insert && !self.write {
            (other, self)
        } else {
            return true;
        };
        let scoped = ins.files.intersection(&read.files).all(|f| read.key_scoped.contains(f));
        !(scoped && ins.keys.is_disjoint(&read.keys))
    }
}

/// A unique-index tuple as footprints name it: `(file, group index,
/// value tuple)`.
type KeyTuple = (String, usize, Vec<Value>);

/// The running summary of the footprints already admitted to a flight:
/// the union [`Flight::admits`] consults instead of every member.
#[derive(Debug, Default)]
pub struct Flight {
    /// Members admitted so far.
    len: usize,
    /// Some insert is in flight.
    insert: bool,
    /// Some broadcast (FILE-less) read is in flight.
    broadcast_read: bool,
    /// The files the inserts in flight target.
    insert_files: HashSet<String>,
    /// The unique tuples the inserts in flight claim.
    insert_keys: HashSet<KeyTuple>,
    /// Files some read in flight touches without key-scoping them.
    loose_read_files: HashSet<String>,
    /// The unique tuples the reads in flight pin.
    read_keys: HashSet<KeyTuple>,
}

impl Flight {
    /// True when `fp` may join the flight: exactly
    /// `!members.iter().any(|m| m.conflicts(fp))` for a flight of
    /// inserts and retrieves and any insert or read `fp` (footprints
    /// built by [`Footprint::of`]). A delete, update or broadcast
    /// write never flies, so it is admitted only into an empty flight.
    pub fn admits(&self, fp: &Footprint) -> bool {
        let claimed = |keys: &HashSet<KeyTuple>| fp.keys.iter().any(|k| keys.contains(k));
        if fp.insert {
            // Against an insert member: a shared claimed tuple (tuples
            // name their file, so sharing one means sharing the file).
            // Against a read member: the read is broadcast, touches
            // this insert's one file without key-scoping it, or pins a
            // tuple this insert claims.
            !(self.broadcast_read
                || fp.files.iter().any(|f| self.loose_read_files.contains(f))
                || claimed(&self.insert_keys)
                || claimed(&self.read_keys))
        } else if !fp.write {
            // A read conflicts only with inserts: any insert when the
            // read is broadcast; otherwise an insert into a file the
            // read does not key-scope, or one claiming a pinned tuple.
            !(self.insert && fp.broadcast
                || fp
                    .files
                    .iter()
                    .any(|f| self.insert_files.contains(f) && !fp.key_scoped.contains(f))
                || claimed(&self.insert_keys))
        } else {
            self.len == 0
        }
    }

    /// Add an admitted insert or retrieve footprint to the summary.
    pub fn push(&mut self, fp: Footprint) {
        debug_assert!(!fp.write || fp.insert, "only inserts and retrieves fly");
        self.len += 1;
        if fp.insert {
            self.insert = true;
            self.insert_files.extend(fp.files);
            self.insert_keys.extend(fp.keys);
        } else {
            self.broadcast_read |= fp.broadcast;
            for f in fp.files {
                if !fp.key_scoped.contains(&f) {
                    self.loose_read_files.insert(f);
                }
            }
            self.read_keys.extend(fp.keys);
        }
    }
}

/// Carve a batch into flights, walking it in admission order: each
/// flight is the longest run of consecutive requests that `may_fly`
/// allows, that are not broadcast writes, and that the flight ahead of
/// them [admits](Flight::admits). A request the flight refuses closes
/// it (a `conflict_stalls` tick) and opens the next one.
///
/// Returns the batch as consecutive index ranges in admission order;
/// a range of one request runs solo. Every range of two or more is a
/// flight, counted in `totals` (`sched_flights`, read/mixed flights,
/// `sched_max_flight`).
pub fn carve(
    requests: &[Request],
    uniques: &UniqueGroups,
    may_fly: impl Fn(&Request) -> bool,
    totals: &mut ExecTotals,
) -> Vec<Range<usize>> {
    let mut plan = Vec::new();
    let mut flight = Flight::default();
    let mut start = 0;
    for (j, request) in requests.iter().enumerate() {
        // A broadcast *write* cannot be staged at all; a broadcast read
        // can ride a read-only flight (read pairs always commute; any
        // write next to it is a footprint conflict and closes the
        // flight).
        let fp = Some(request)
            .filter(|r| may_fly(r))
            .map(|r| Footprint::of(r, uniques))
            .filter(|fp| !(fp.broadcast && fp.write));
        let Some(fp) = fp else {
            close(&mut plan, start..j, requests, totals);
            plan.push(j..j + 1);
            flight = Flight::default();
            start = j + 1;
            continue;
        };
        if !flight.admits(&fp) {
            totals.conflict_stalls += 1;
            close(&mut plan, start..j, requests, totals);
            flight = Flight::default();
            start = j;
        }
        flight.push(fp);
    }
    close(&mut plan, start..requests.len(), requests, totals);
    plan
}

/// End the flight `members` (if any): append it to `plan` and, when it
/// holds two or more requests, count it.
fn close(
    plan: &mut Vec<Range<usize>>,
    members: Range<usize>,
    requests: &[Request],
    totals: &mut ExecTotals,
) {
    if members.len() >= 2 {
        let reads = requests[members.clone()]
            .iter()
            .filter(|r| matches!(r, Request::Retrieve { .. }))
            .count();
        totals.sched_flights += 1;
        if reads == members.len() {
            totals.sched_read_flights += 1;
        } else if reads > 0 {
            totals.sched_mixed_flights += 1;
        }
        totals.sched_max_flight = totals.sched_max_flight.max(members.len() as u64);
    }
    if !members.is_empty() {
        plan.push(members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abdl::parse::parse_request;

    fn uniques() -> UniqueGroups {
        HashMap::from([("g".to_owned(), vec![vec!["u".to_owned()]])])
    }

    fn fp(text: &str) -> Footprint {
        Footprint::of(&parse_request(text).unwrap(), &uniques())
    }

    #[test]
    fn disjoint_files_never_conflict() {
        let a = fp("INSERT (<FILE, g>, <u, 1>)");
        let b = fp("INSERT (<FILE, h>, <u, 1>)");
        assert!(!a.conflicts(&b));
        let c = fp("DELETE ((FILE = h) and (x = 3))");
        assert!(!a.conflicts(&c));
    }

    #[test]
    fn same_file_different_keys_do_not_conflict() {
        let a = fp("INSERT (<FILE, g>, <u, 1>)");
        let b = fp("INSERT (<FILE, g>, <u, 2>)");
        assert!(!a.conflicts(&b));
        assert!(!b.conflicts(&a));
    }

    #[test]
    fn same_key_conflicts() {
        let a = fp("INSERT (<FILE, g>, <u, 7>, <x, 1>)");
        let b = fp("INSERT (<FILE, g>, <u, 7>, <x, 2>)");
        assert!(a.conflicts(&b));
    }

    #[test]
    fn same_file_unconstrained_inserts_commute() {
        // File `h` has no unique groups: fresh-key inserts commute.
        let a = fp("INSERT (<FILE, h>, <x, 1>)");
        let b = fp("INSERT (<FILE, h>, <x, 1>)");
        assert!(!a.conflicts(&b));
    }

    #[test]
    fn reads_never_conflict_with_reads() {
        let a = fp("RETRIEVE ((FILE = g) and (u = 1)) (*)");
        let b = fp("RETRIEVE (FILE = g) (*)");
        assert!(!a.conflicts(&b));
        // Scope does not matter for read pairs: broadcast reads
        // commute with scoped reads and with each other.
        let unscoped = fp("RETRIEVE (x = 1) (*)");
        assert!(unscoped.broadcast);
        assert!(!unscoped.conflicts(&a));
        assert!(!unscoped.conflicts(&unscoped.clone()));
    }

    #[test]
    fn writes_conflict_with_overlapping_reads_and_writes() {
        let ins = fp("INSERT (<FILE, g>, <u, 1>)");
        let read = fp("RETRIEVE (FILE = g) (*)");
        let del = fp("DELETE (FILE = g)");
        assert!(ins.conflicts(&read));
        assert!(ins.conflicts(&del));
        assert!(del.conflicts(&read));
    }

    #[test]
    fn key_scoped_reads_commute_with_key_disjoint_inserts() {
        let read = fp("RETRIEVE ((FILE = g) and (u = 1)) (*)");
        assert!(read.key_scoped.contains("g"));
        // Different pinned tuple: the inserted record cannot match.
        assert!(!read.conflicts(&fp("INSERT (<FILE, g>, <u, 2>)")));
        // Same tuple: the read's answer depends on the order.
        assert!(read.conflicts(&fp("INSERT (<FILE, g>, <u, 1>)")));
        // An insert claiming nothing for the group (no `u`) cannot
        // satisfy the read's pinned equality either.
        assert!(!read.conflicts(&fp("INSERT (<FILE, g>, <x, 9>)")));
        // A file-scoped read (file `h` has no unique groups to pin)
        // stays conservative against same-file inserts.
        let loose = fp("RETRIEVE ((FILE = h) and (u = 1)) (*)");
        assert!(loose.key_scoped.is_empty());
        assert!(loose.conflicts(&fp("INSERT (<FILE, h>, <u, 2>)")));
        // One pinned disjunct plus one loose disjunct on the same file
        // is not key-scoped.
        let half = fp("RETRIEVE (((FILE = g) and (u = 1)) or ((FILE = g) and (x = 2))) (*)");
        assert!(half.key_scoped.is_empty());
        assert!(half.conflicts(&fp("INSERT (<FILE, g>, <u, 2>)")));
    }

    #[test]
    fn broadcast_footprints_serialize_against_writes() {
        // A record without FILE, and a query disjunct without FILE,
        // both classify as broadcast.
        let no_file = Footprint::of(
            &Request::Insert { record: abdl::Record::from_pairs([("x", Value::Int(1))]) },
            &uniques(),
        );
        assert!(no_file.broadcast);
        let unscoped = fp("RETRIEVE (x = 1) (*)");
        assert!(unscoped.broadcast);
        let other_file = fp("RETRIEVE (FILE = zzz) (*)");
        assert!(no_file.conflicts(&other_file));
        // A broadcast read still serializes against any write — it
        // must observe the cluster at one admission-order point.
        assert!(unscoped.conflicts(&fp("INSERT (<FILE, g>, <u, 3>)")));
        assert!(unscoped.conflicts(&fp("DELETE (FILE = g)")));
    }

    /// A `perfbench`-sized bulk-load chunk: 256 inserts into `g` with
    /// unique keys `base..base + 256`, except that `dup_at` (if any)
    /// repeats the key of member 10.
    fn bulk_batch(base: i64, dup_at: Option<usize>) -> Vec<Request> {
        (0..256)
            .map(|i| {
                let u = base + if Some(i) == dup_at { 10 } else { i as i64 };
                let record = abdl::Record::from_pairs([("FILE", Value::str("g"))])
                    .with("u", Value::Int(u))
                    .with("x", Value::Int(i as i64));
                Request::Insert { record }
            })
            .collect()
    }

    /// The scheduler counters `carve` owns, plus the batch count.
    fn sched_counters(t: &ExecTotals) -> [u64; 6] {
        [
            t.batched_requests,
            t.sched_flights,
            t.sched_read_flights,
            t.sched_mixed_flights,
            t.sched_max_flight,
            t.conflict_stalls,
        ]
    }

    #[test]
    fn carve_plans_a_bulk_load_batch_as_one_flight_or_stalls_at_the_duplicate() {
        let mut totals = ExecTotals::default();
        let plan = carve(&bulk_batch(0, None), &uniques(), |_| true, &mut totals);
        assert_eq!(plan, vec![0..256]);
        assert_eq!(sched_counters(&totals), [0, 1, 0, 0, 256, 0]);
        let plan = carve(&bulk_batch(0, Some(200)), &uniques(), |_| true, &mut totals);
        assert_eq!(plan, vec![0..200, 200..256], "the duplicate stalls at index 200");
        assert_eq!(sched_counters(&totals), [0, 3, 0, 0, 256, 1]);
        // A request the host will not fly closes the flight without a
        // stall tick and runs solo.
        let grounded = |r: &Request| match r {
            Request::Insert { record } => record.get("x") != Some(&Value::Int(100)),
            _ => true,
        };
        let mut totals = ExecTotals::default();
        let plan = carve(&bulk_batch(0, None), &uniques(), grounded, &mut totals);
        assert_eq!(plan, vec![0..100, 100..101, 101..256]);
        assert_eq!(sched_counters(&totals), [0, 2, 0, 0, 155, 0]);
    }

    #[test]
    fn both_hosts_count_identical_flights_for_bulk_loads() {
        let hosts: [Box<dyn abdl::Kernel>; 2] = [
            Box::new(crate::Controller::with_replication_chan(4, 2)),
            Box::new(crate::SimCluster::new(4)),
        ];
        let mut counters = Vec::new();
        for mut host in hosts {
            host.create_file("g");
            host.add_unique_constraint("g", vec!["u".to_owned()]);
            let results = host.execute_batch(&bulk_batch(0, None));
            assert!(results.iter().all(|r| r.is_ok()));
            assert_eq!(sched_counters(&host.exec_totals()), [256, 1, 0, 0, 256, 0]);
            let results = host.execute_batch(&bulk_batch(1000, Some(200)));
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.is_err(), i == 200, "member {i}: {r:?}");
            }
            let totals = host.exec_totals();
            assert_eq!(sched_counters(&totals), [512, 3, 0, 0, 256, 1]);
            counters.push(sched_counters(&totals));
        }
        assert_eq!(counters[0], counters[1], "Controller and SimCluster carve differently");
    }

    #[test]
    fn retrieve_common_covers_both_sides() {
        let j = fp("RETRIEVE-COMMON ((FILE = g)) (u) COMMON ((FILE = h)) (u) (x)");
        assert_eq!(
            j.files.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["g", "h"]
        );
        let ins_g = fp("INSERT (<FILE, g>, <u, 9>)");
        let ins_k = fp("INSERT (<FILE, k>, <u, 9>)");
        assert!(j.conflicts(&ins_g));
        assert!(!j.conflicts(&ins_k));
    }
}
