//! Randomized property tests for the ABDL kernel: query semantics,
//! parser round-trips, and index/scan agreement. Inputs are generated
//! with the in-tree seeded PRNG so failures reproduce exactly.

use abdl::engine::Store;
use abdl::parse::{parse_request, parse_transaction};
use abdl::prng::Prng;
use abdl::{Conjunction, Predicate, Query, Record, RelOp, Request, TargetList, Value};

const CASES: u64 = 200;

fn gen_value(rng: &mut Prng) -> Value {
    match rng.index(4) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(-50, 50)),
        2 => Value::Float(rng.gen_range(-50, 50) as f64 / 2.0),
        _ => {
            let len = rng.index(7);
            let s: String =
                (0..len).map(|_| (b'a' + rng.index(26) as u8) as char).collect();
            Value::from(s)
        }
    }
}

fn gen_nonnull_value(rng: &mut Prng) -> Value {
    loop {
        let v = gen_value(rng);
        if !v.is_null() {
            return v;
        }
    }
}

fn gen_attr(rng: &mut Prng) -> String {
    ["a", "b", "c"][rng.index(3)].to_owned()
}

fn gen_relop(rng: &mut Prng) -> RelOp {
    [RelOp::Eq, RelOp::Ne, RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge][rng.index(6)]
}

fn gen_predicate(rng: &mut Prng) -> Predicate {
    Predicate { attr: gen_attr(rng), op: gen_relop(rng), value: gen_value(rng) }
}

fn gen_query(rng: &mut Prng) -> Query {
    let disjuncts = (0..1 + rng.index(3))
        .map(|_| Conjunction::new((0..rng.index(4)).map(|_| gen_predicate(rng)).collect()))
        .collect();
    Query::new(disjuncts)
}

fn gen_record(rng: &mut Prng) -> Record {
    let mut r = Record::from_pairs([("FILE", Value::str("f"))]);
    for _ in 0..rng.index(4) {
        let a = gen_attr(rng);
        let v = gen_nonnull_value(rng);
        r.set(a, v);
    }
    r
}

fn gen_records(rng: &mut Prng, max: usize) -> Vec<Record> {
    (0..rng.index(max + 1)).map(|_| gen_record(rng)).collect()
}

/// The relational operators agree with the total order on values.
#[test]
fn relop_consistency() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x5e_1000 + seed);
        let a = gen_nonnull_value(&mut rng);
        let b = gen_nonnull_value(&mut rng);
        let eq = RelOp::Eq.eval(&a, &b);
        let ne = RelOp::Ne.eval(&a, &b);
        let lt = RelOp::Lt.eval(&a, &b);
        let le = RelOp::Le.eval(&a, &b);
        let gt = RelOp::Gt.eval(&a, &b);
        let ge = RelOp::Ge.eval(&a, &b);
        assert_eq!(eq, !ne, "seed {seed}: {a:?} vs {b:?}");
        assert_eq!(le, lt || eq, "seed {seed}: {a:?} vs {b:?}");
        assert_eq!(ge, gt || eq, "seed {seed}: {a:?} vs {b:?}");
        assert!(!(lt && gt), "seed {seed}: {a:?} vs {b:?}");
        assert_eq!(lt, RelOp::Gt.eval(&b, &a), "seed {seed}: {a:?} vs {b:?}");
    }
}

/// DNF semantics: a query matches iff some disjunct has all predicates
/// matching.
#[test]
fn dnf_matches_definition() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x5e_2000 + seed);
        let q = gen_query(&mut rng);
        let r = gen_record(&mut rng);
        let expected =
            q.disjuncts.iter().any(|c| c.predicates.iter().all(|p| p.matches(&r)));
        assert_eq!(q.matches(&r), expected, "seed {seed}: {q:?} on {r:?}");
    }
}

/// Canonical request text round-trips through the parser.
#[test]
fn request_print_parse_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x5e_3000 + seed);
        let q = gen_query(&mut rng);
        let r = gen_record(&mut rng);
        let requests = vec![
            Request::Insert { record: r },
            Request::Delete { query: q.clone() },
            Request::Update {
                query: q.clone(),
                modifier: abdl::Modifier::new("a", Value::Int(1)),
            },
            Request::Retrieve {
                query: q,
                target: TargetList::attrs(["a", "b"]),
                by: Some("c".into()),
            },
        ];
        for req in requests {
            let text = req.to_string();
            let reparsed = parse_request(&text)
                .unwrap_or_else(|e| panic!("reparse failed for `{text}`: {e}"));
            assert_eq!(req, reparsed, "round trip failed for `{text}` (seed {seed})");
        }
    }
}

/// Records holding non-ASCII text — in string values, bareword-safe
/// attribute names and the record body — print and reparse exactly
/// (the WAL and the wire both rely on this round trip).
#[test]
fn non_ascii_record_print_parse_roundtrip() {
    const CHARS: [char; 8] = ['a', '\'', ' ', 'é', 'ß', '名', '☃', '🦀'];
    const ATTRS: [&str; 3] = ["naïve", "名前", "x"];
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x5e_6000 + seed);
        let text =
            |rng: &mut Prng| -> String { (0..rng.index(8)).map(|_| *rng.pick(&CHARS)).collect() };
        let mut r = Record::from_pairs([("FILE", Value::str("café"))]);
        for attr in ATTRS {
            if rng.chance(2, 3) {
                r.set(attr, Value::from(text(&mut rng)));
            }
        }
        if rng.chance(1, 2) {
            r.body = Some(text(&mut rng));
        }
        let req = Request::Insert { record: r };
        let printed = req.to_string();
        let reparsed = parse_request(&printed)
            .unwrap_or_else(|e| panic!("reparse failed for `{printed}`: {e}"));
        assert_eq!(req, reparsed, "round trip failed for `{printed}` (seed {seed})");
    }
}

/// A transaction's canonical text round-trips too.
#[test]
fn transaction_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x5e_4000 + seed);
        let txn = abdl::Transaction::new(
            (0..1 + rng.index(3)).map(|_| Request::retrieve_all(gen_query(&mut rng))).collect(),
        );
        let text = txn.to_string();
        let reparsed = parse_transaction(&text).unwrap();
        assert_eq!(txn, reparsed, "seed {seed}");
    }
}

/// Index-assisted evaluation returns exactly the records that brute
/// force predicate evaluation returns.
#[test]
fn index_and_scan_agree() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x5e_5000 + seed);
        let records = gen_records(&mut rng, 30);
        let q = gen_query(&mut rng);
        let mut indexed = Store::new();
        let mut scanned = Store::with_indexing(false);
        for (i, mut rec) in records.into_iter().enumerate() {
            rec.set("k", Value::Int(i as i64));
            indexed.execute(&Request::Insert { record: rec.clone() }).unwrap();
            scanned.execute(&Request::Insert { record: rec }).unwrap();
        }
        // Route the query to file f like real translator output does.
        let routed = q.and_predicate(Predicate::eq("FILE", "f"));
        let req = Request::retrieve_all(routed);
        let a = indexed.execute(&req).unwrap();
        let b = scanned.execute(&req).unwrap();
        assert_eq!(a.records(), b.records(), "seed {seed}");
    }
}

/// DELETE then RETRIEVE with the same query returns nothing, and no
/// other record disappears.
#[test]
fn delete_is_exact() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x5e_6000 + seed);
        let records = gen_records(&mut rng, 30);
        let q = gen_query(&mut rng);
        let mut store = Store::new();
        let mut kept = 0usize;
        let routed = q.and_predicate(Predicate::eq("FILE", "f"));
        for (i, mut rec) in records.into_iter().enumerate() {
            rec.set("k", Value::Int(i as i64));
            if !routed.matches(&rec) {
                kept += 1;
            }
            store.execute(&Request::Insert { record: rec }).unwrap();
        }
        store.execute(&Request::Delete { query: routed.clone() }).unwrap();
        let rest = store
            .execute(&Request::retrieve_all(Query::conjunction(vec![Predicate::eq(
                "FILE", "f",
            )])))
            .unwrap();
        assert_eq!(rest.records().len(), kept, "seed {seed}");
        let gone = store.execute(&Request::retrieve_all(routed)).unwrap();
        assert!(gone.records().is_empty(), "seed {seed}");
    }
}

/// UPDATE sets the attribute on every matching record and only those.
#[test]
fn update_is_exact() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x5e_7000 + seed);
        let records = gen_records(&mut rng, 30);
        let q = gen_query(&mut rng);
        let mut store = Store::new();
        let routed = q.and_predicate(Predicate::eq("FILE", "f"));
        let mut expect = 0usize;
        for (i, mut rec) in records.into_iter().enumerate() {
            rec.set("k", Value::Int(i as i64));
            // The sentinel value must not pre-exist.
            if rec.get("mark").is_some() {
                rec.remove("mark");
            }
            if routed.matches(&rec) {
                expect += 1;
            }
            store.execute(&Request::Insert { record: rec }).unwrap();
        }
        let resp = store
            .execute(&Request::Update {
                query: routed,
                modifier: abdl::Modifier::new("mark", Value::Int(999)),
            })
            .unwrap();
        assert_eq!(resp.affected, expect, "seed {seed}");
        let marked = store
            .execute(&Request::retrieve_all(Query::conjunction(vec![
                Predicate::eq("FILE", "f"),
                Predicate::eq("mark", Value::Int(999)),
            ])))
            .unwrap();
        assert_eq!(marked.records().len(), expect, "seed {seed}");
    }
}
