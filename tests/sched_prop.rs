//! Property tests for the `mbds::sched` footprint algebra.
//!
//! The batch scheduler flies two requests concurrently exactly when
//! `Footprint::conflicts` says they commute. Two properties back that
//! claim, over seeded random request pairs:
//!
//! 1. **Symmetry** — `conflicts(a, b) == conflicts(b, a)` for every
//!    generated pair (the scheduler consults the predicate in
//!    admission order, so an asymmetric classification would make
//!    flight formation order-dependent).
//! 2. **Either-order equivalence** — any *insert* pair the scheduler
//!    would fly in parallel (non-conflicting, non-broadcast) produces
//!    the same kernel contents executed in either serial order, and
//!    the scheduler's own batched execution matches the
//!    admission-order serial digest byte-for-byte.
//!
//! 3. **The flight summary is the pairwise predicate** — over seeded
//!    random flights, `Flight::admits` (the scheduler's O(1) union
//!    check) equals `!members.any(conflicts)` at every step, and
//!    `sched::carve` forms the flights and counters of a pairwise
//!    reference carver.
//!
//! Record *contents* are compared order-invariantly (sorted canonical
//! record text per file): swapping two inserts swaps which database
//! key and placement rotor step each consumes, so the literal
//! directory digest legitimately differs — commutativity is about
//! what the database contains, not which internal id each row drew.

use mlds::abdl::parse::parse_request;
use mlds::abdl::prng::Prng;
use mlds::abdl::{ExecTotals, Kernel, Record, Request, Value};
use mlds::mbds::sched::{self, Flight, UniqueGroups};
use mlds::mbds::{Controller, Footprint};
use std::collections::HashMap;

const FILES: [&str; 3] = ["g", "h", "k"];

/// The constraint registry under test: `g` has a single-attribute
/// unique group, `k` a composite one, `h` none.
fn uniques() -> UniqueGroups {
    HashMap::from([
        ("g".to_owned(), vec![vec!["u".to_owned()]]),
        ("k".to_owned(), vec![vec!["u".to_owned(), "v".to_owned()]]),
    ])
}

/// A fresh controller with the three files and their constraints.
fn kernel() -> Controller {
    let mut c = Controller::new(4);
    for f in FILES {
        c.create_file(f);
    }
    for (file, groups) in uniques() {
        for attrs in groups {
            c.add_unique_constraint(&file, attrs);
        }
    }
    c
}

/// One seeded random request: inserts (sometimes FILE-less, i.e.
/// broadcast), deletes, updates, scoped and unscoped retrieves.
fn gen_request(rng: &mut Prng) -> Request {
    let file = FILES[rng.gen_range(0, FILES.len() as i64) as usize];
    let roll = rng.gen_range(0, 100);
    if roll < 50 {
        let mut record = if roll < 4 {
            // No FILE keyword: classifies as a broadcast write.
            Record::from_pairs([("x", Value::Int(rng.gen_range(0, 1000)))])
        } else {
            Record::from_pairs([("FILE", Value::str(file))])
        };
        record = record.with("u", Value::Int(rng.gen_range(0, 8)));
        if rng.gen_range(0, 2) == 0 {
            record = record.with("v", Value::Int(rng.gen_range(0, 4)));
        }
        record = record.with("x", Value::Int(rng.gen_range(0, 1000)));
        Request::Insert { record }
    } else {
        let text = match rng.gen_range(0, 6) {
            0 => format!("DELETE ((FILE = {file}) and (x < {}))", rng.gen_range(0, 1000)),
            1 => format!(
                "UPDATE ((FILE = {file}) and (x < {})) (x = {})",
                rng.gen_range(0, 1000),
                rng.gen_range(0, 10)
            ),
            2 => format!("RETRIEVE ((FILE = {file}) and (x < {})) (*)", rng.gen_range(0, 1000)),
            3 => format!("RETRIEVE (FILE = {file}) (*)"),
            // Key-scoped point read: pins g's unique group.
            4 => format!("RETRIEVE ((FILE = g) and (u = {})) (*)", rng.gen_range(0, 8)),
            // Unscoped query: a broadcast read.
            _ => format!("RETRIEVE (x < {}) (*)", rng.gen_range(0, 1000)),
        };
        parse_request(&text).expect("generated request parses")
    }
}

/// One seeded random *read*: scoped and unscoped range reads, full
/// scans, key-pinned point reads (single- and composite-group), and a
/// mixed disjunction.
fn gen_read(rng: &mut Prng) -> Request {
    let file = FILES[rng.gen_range(0, FILES.len() as i64) as usize];
    let text = match rng.gen_range(0, 6) {
        0 => format!("RETRIEVE ((FILE = {file}) and (x < {})) (*)", rng.gen_range(0, 1000)),
        1 => format!("RETRIEVE (FILE = {file}) (*)"),
        // Unscoped: a broadcast read.
        2 => format!("RETRIEVE (x < {}) (*)", rng.gen_range(0, 1000)),
        3 => format!("RETRIEVE ((FILE = g) and (u = {})) (*)", rng.gen_range(0, 8)),
        4 => format!(
            "RETRIEVE ((FILE = k) and (u = {}) and (v = {})) (*)",
            rng.gen_range(0, 8),
            rng.gen_range(0, 4)
        ),
        _ => format!(
            "RETRIEVE (((FILE = g) and (u = {})) or ((FILE = {file}) and (x < {}))) (*)",
            rng.gen_range(0, 8),
            rng.gen_range(0, 1000)
        ),
    };
    parse_request(&text).expect("generated read parses")
}

/// Property 1: classification is symmetric over 2000 seeded pairs.
#[test]
fn conflicts_classify_symmetrically() {
    let uniques = uniques();
    let mut rng = Prng::seed_from_u64(0x5EED_F00D);
    let mut conflicting = 0u32;
    for _ in 0..2000 {
        let (a, b) = (gen_request(&mut rng), gen_request(&mut rng));
        let (fa, fb) = (Footprint::of(&a, &uniques), Footprint::of(&b, &uniques));
        assert_eq!(
            fa.conflicts(&fb),
            fb.conflicts(&fa),
            "asymmetric classification:\n  a = {a:?}\n  b = {b:?}"
        );
        conflicting += u32::from(fa.conflicts(&fb));
    }
    // The generator must actually exercise both classes.
    assert!(conflicting > 200, "only {conflicting} conflicting pairs generated");
    assert!(conflicting < 1800, "only {} commuting pairs generated", 2000 - conflicting);
}

/// The order-invariant contents digest: per file, the sorted canonical
/// record texts. Internal ids (database keys, rotor positions) are
/// excluded on purpose — they are allocation order, not contents.
fn contents_digest(c: &mut Controller) -> String {
    let mut out = String::new();
    for file in FILES {
        let resp = c
            .execute(&parse_request(&format!("RETRIEVE (FILE = {file}) (*)")).unwrap())
            .expect("retrieve all");
        let mut rows: Vec<String> =
            resp.records().iter().map(|(_, r)| r.to_string()).collect();
        rows.sort();
        out.push_str(&format!("{file}: {}\n", rows.join(" | ")));
    }
    out
}

/// Property 2: every insert pair the scheduler would fly in parallel
/// commutes — same contents either serial order, and the batched
/// (flight-scheduled) execution equals the admission-order serial run
/// on the *literal* state digest.
#[test]
fn parallel_flights_commute_in_either_serial_order() {
    let uniques = uniques();
    let mut rng = Prng::seed_from_u64(0xF1EE7);
    let mut flown = 0u32;
    while flown < 120 {
        let (a, b) = (gen_request(&mut rng), gen_request(&mut rng));
        if !matches!(a, Request::Insert { .. }) || !matches!(b, Request::Insert { .. }) {
            continue;
        }
        let (fa, fb) = (Footprint::of(&a, &uniques), Footprint::of(&b, &uniques));
        if fa.broadcast || fb.broadcast || fa.conflicts(&fb) {
            continue;
        }
        flown += 1;

        // Either serial order: identical contents.
        let mut ab = kernel();
        let ra = ab.execute(&a);
        let rb = ab.execute(&b);
        let mut ba = kernel();
        let rb2 = ba.execute(&b);
        let ra2 = ba.execute(&a);
        assert_eq!(ra.is_ok(), ra2.is_ok(), "a's outcome depends on order: {a:?} / {b:?}");
        assert_eq!(rb.is_ok(), rb2.is_ok(), "b's outcome depends on order: {a:?} / {b:?}");
        assert_eq!(
            contents_digest(&mut ab),
            contents_digest(&mut ba),
            "contents diverge for commuting pair:\n  a = {a:?}\n  b = {b:?}"
        );

        // The scheduler's own parallel flight ≡ serial admission order,
        // on the literal digest (keys and rotors included).
        let mut batched = kernel();
        let results = batched.execute_batch(&[a.clone(), b.clone()]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].is_ok(), ra.is_ok());
        assert_eq!(results[1].is_ok(), rb.is_ok());
        assert_eq!(
            batched.state_digest().unwrap(),
            ab.state_digest().unwrap(),
            "flight execution diverges from serial admission order:\n  a = {a:?}\n  b = {b:?}"
        );
    }
}

/// Satellite property of the read pipeline: reads always commute, so a
/// seeded read-only batch — whatever mix of scopes, broadcast scans
/// included — forms exactly one flight with zero conflict stalls.
#[test]
fn read_only_batches_always_form_a_single_flight() {
    let uniques = uniques();
    let mut rng = Prng::seed_from_u64(0xBEAD_5EED);
    for round in 0..40u64 {
        let n = 2 + (round % 7) as usize;
        let batch: Vec<Request> = (0..n).map(|_| gen_read(&mut rng)).collect();
        let fps: Vec<Footprint> =
            batch.iter().map(|r| Footprint::of(r, &uniques)).collect();
        for (i, fa) in fps.iter().enumerate() {
            for (j, fb) in fps.iter().enumerate().skip(i + 1) {
                assert!(
                    !fa.conflicts(fb),
                    "read pair classified conflicting:\n  a = {:?}\n  b = {:?}",
                    batch[i],
                    batch[j]
                );
            }
        }
        // Integration: the scheduler actually flies the whole batch as
        // one read flight. (The socket transport executes batches on
        // the solo path — one in-flight request per link — so the
        // flight counters are an in-process claim.)
        let mut c = kernel();
        for i in 0..6 {
            let rec = Record::from_pairs([("FILE", Value::str("g"))])
                .with("u", Value::Int(i))
                .with("x", Value::Int(i * 100));
            c.execute(&Request::Insert { record: rec }).expect("seed insert");
        }
        let results = c.execute_batch(&batch);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        if std::env::var("MBDS_TRANSPORT").is_ok_and(|v| v == "tcp") {
            continue;
        }
        let t = c.exec_totals();
        assert_eq!(t.sched_flights, 1, "batch of {n} reads split into flights");
        assert_eq!(t.sched_read_flights, 1);
        assert_eq!(t.sched_mixed_flights, 0);
        assert_eq!(t.conflict_stalls, 0, "a read stalled on a read");
        assert_eq!(t.sched_max_flight, n as u64);
    }
}

/// The refinement the flight scheduler actually relies on: same-file
/// inserts claiming the same unique tuple must classify as conflicting
/// — running them in parallel could double-admit the tuple. Check the
/// classifier against ground truth: for seeded same-file insert pairs,
/// if the pair is classified non-conflicting, both orders must admit
/// and reject identically (the unique check of one cannot observe the
/// other).
#[test]
fn non_conflicting_inserts_have_order_independent_unique_outcomes() {
    let uniques = uniques();
    let mut rng = Prng::seed_from_u64(0xD1CE);
    let mut checked = 0u32;
    for _ in 0..4000 {
        if checked >= 150 {
            break;
        }
        let (a, b) = (gen_request(&mut rng), gen_request(&mut rng));
        let (Request::Insert { .. }, Request::Insert { .. }) = (&a, &b) else { continue };
        let (fa, fb) = (Footprint::of(&a, &uniques), Footprint::of(&b, &uniques));
        if fa.broadcast || fb.broadcast || fa.files != fb.files || fa.conflicts(&fb) {
            continue;
        }
        checked += 1;
        let mut ab = kernel();
        let outcomes_ab = (ab.execute(&a).is_ok(), ab.execute(&b).is_ok());
        let mut ba = kernel();
        let (b_ok, a_ok) = (ba.execute(&b).is_ok(), ba.execute(&a).is_ok());
        assert_eq!(
            outcomes_ab,
            (a_ok, b_ok),
            "unique admission depends on order for non-conflicting pair:\n  a = {a:?}\n  b = {b:?}"
        );
    }
    assert!(checked >= 150, "generator produced too few same-file commuting pairs: {checked}");
}

/// One seeded request a flight can hold or be asked to admit: the
/// inserts and retrieves of [`gen_request`] and [`gen_read`] (so
/// FILE-less inserts, inserts claiming no tuple, broadcast reads,
/// loose, key-scoped and half-scoped reads, composite groups), plus
/// NULL-pinned reads (never a key scope) and inserts carrying an
/// explicit NULL (which do claim a tuple).
fn gen_flyable(rng: &mut Prng, read_share: i64) -> Request {
    let roll = rng.gen_range(0, 100);
    if roll < 6 {
        let u = rng.gen_range(0, 8);
        let query = match rng.gen_range(0, 3) {
            0 => "(FILE = g) and (u = NULL)".to_owned(),
            1 => format!("(FILE = k) and (u = {u}) and (v = NULL)"),
            _ => format!("((FILE = k) and (u = NULL)) or ((FILE = g) and (u = {u}))"),
        };
        let text = format!("RETRIEVE ({query}) (*)");
        return parse_request(&text).expect("generated read parses");
    }
    if roll < 9 {
        let file = ["g", "k"][rng.gen_range(0, 2) as usize];
        let record = Record::from_pairs([("FILE", Value::str(file))])
            .with("u", Value::Null)
            .with("v", Value::Int(rng.gen_range(0, 4)));
        return Request::Insert { record };
    }
    if rng.gen_range(0, 100) < read_share {
        return gen_read(rng);
    }
    loop {
        let r = gen_request(rng);
        if matches!(r, Request::Insert { .. } | Request::Retrieve { .. }) {
            return r;
        }
    }
}

/// Property 3: the flight summary answers exactly as the pairwise
/// predicate. Each sequence is carved the way `sched::carve` does it —
/// a refused request starts the next flight, a broadcast write runs
/// solo — and at every step `Flight::admits` must equal
/// `!members.any(conflicts)`. Read-heavy sequences grow long read
/// flights that inserts then probe against a large union.
#[test]
fn flight_summary_admits_exactly_what_pairwise_conflicts_allow() {
    let uniques = uniques();
    let mut rng = Prng::seed_from_u64(0xF116_4755);
    let (mut admitted, mut refused, mut longest) = (0u32, 0u32, 0usize);
    for _ in 0..2000 {
        let len = rng.gen_range(1, 301);
        let read_share = [20, 60, 97][rng.gen_range(0, 3) as usize];
        let mut flight = Flight::default();
        let mut members: Vec<Footprint> = Vec::new();
        for _ in 0..len {
            let request = gen_flyable(&mut rng, read_share);
            let fp = Footprint::of(&request, &uniques);
            let pairwise = !members.iter().any(|m| m.conflicts(&fp));
            assert_eq!(
                flight.admits(&fp),
                pairwise,
                "summary disagrees with the pairwise predicate on {request:?} after {} members:\n{:#?}",
                members.len(),
                members
            );
            if fp.broadcast && fp.write {
                flight = Flight::default();
                members.clear();
                continue;
            }
            if pairwise {
                admitted += 1;
            } else {
                refused += 1;
                flight = Flight::default();
                members.clear();
            }
            flight.push(fp.clone());
            members.push(fp);
            longest = longest.max(members.len());
        }
    }
    assert!(admitted > 100_000 && refused > 30_000, "admitted {admitted}, refused {refused}");
    assert!(longest >= 100, "longest flight only {longest} members");
}

/// Reference carver: the same admission-order walk with pairwise
/// admission (`!members.any(conflicts)`), which `sched::carve` must
/// reproduce range for range and counter for counter.
fn carve_pairwise(
    requests: &[Request],
    uniques: &UniqueGroups,
    may_fly: impl Fn(&Request) -> bool,
    totals: &mut ExecTotals,
) -> Vec<std::ops::Range<usize>> {
    let mut plan = Vec::new();
    let mut i = 0;
    while i < requests.len() {
        let mut flight_fps: Vec<Footprint> = Vec::new();
        let mut j = i;
        while j < requests.len() && may_fly(&requests[j]) {
            let fp = Footprint::of(&requests[j], uniques);
            if fp.broadcast && fp.write {
                break;
            }
            if flight_fps.iter().any(|f| f.conflicts(&fp)) {
                totals.conflict_stalls += 1;
                break;
            }
            flight_fps.push(fp);
            j += 1;
        }
        if j - i >= 2 {
            let reads =
                requests[i..j].iter().filter(|r| matches!(r, Request::Retrieve { .. })).count();
            totals.sched_flights += 1;
            if reads == j - i {
                totals.sched_read_flights += 1;
            } else if reads > 0 {
                totals.sched_mixed_flights += 1;
            }
            totals.sched_max_flight = totals.sched_max_flight.max((j - i) as u64);
        }
        plan.push(i..j.max(i + 1));
        i = j.max(i + 1);
    }
    plan
}

/// `sched::carve` forms exactly the flights, stalls and counters of the
/// pairwise carving loop, over seeded batches of every request kind
/// (deletes, updates and broadcast writes included) and both hosts'
/// kinds of "may fly" rule.
#[test]
fn carve_matches_the_pairwise_carving_loop() {
    let uniques = uniques();
    let mut rng = Prng::seed_from_u64(0xCA4E);
    for round in 0..500 {
        let len = rng.gen_range(0, 80) as usize;
        let read_share = [20, 60, 97][round % 3];
        let batch: Vec<Request> = (0..len)
            .map(|_| {
                if rng.gen_range(0, 5) == 0 {
                    gen_request(&mut rng)
                } else {
                    gen_flyable(&mut rng, read_share)
                }
            })
            .collect();
        // The controller grounds retrieves when parallel reads are off.
        let parallel_reads = round % 4 != 0;
        let may_fly = |r: &Request| match r {
            Request::Insert { .. } => true,
            Request::Retrieve { .. } => parallel_reads,
            _ => false,
        };
        let (mut want, mut got) = (ExecTotals::default(), ExecTotals::default());
        let expected = carve_pairwise(&batch, &uniques, may_fly, &mut want);
        assert_eq!(sched::carve(&batch, &uniques, may_fly, &mut got), expected, "{batch:?}");
        assert_eq!(got, want, "{batch:?}");
    }
}
