//! Differential test of the kernel directory: an indexed `Store` and a
//! scan-only `Store::with_indexing(false)` must give identical answers
//! through seeded insert/update/delete churn. The attributes cover the
//! directory's shapes — a unique key (one key per value), a ten-per-
//! value group, and a sparse attribute that is often missing or NULL —
//! and the conjuncts mix in `FILE = x` / `FILE != x`, which the
//! directory does not index and must still answer exactly.

use abdl::engine::Store;
use abdl::prng::Prng;
use abdl::{Conjunction, Modifier, Predicate, Query, Record, RelOp, Request, TargetList, Value};

const SEEDS: u64 = 8;
const OPS: usize = 400;
const FILES: [&str; 2] = ["a", "b"];

/// Generator state: the next fresh unique key.
struct Gen {
    rng: Prng,
    next_u: i64,
}

impl Gen {
    fn file(&mut self) -> &'static str {
        FILES[self.rng.index(FILES.len())]
    }

    /// `u` is fresh (unique) unless a duplicate is asked for, `g` puts
    /// ten consecutive keys in one group, and `m` is missing on a third
    /// of the records.
    fn record(&mut self, duplicate: bool) -> Record {
        let u = if duplicate && self.next_u > 0 {
            self.rng.gen_range(0, self.next_u)
        } else {
            self.next_u += 1;
            self.next_u - 1
        };
        let mut r = Record::from_pairs([("FILE", Value::str(self.file()))])
            .with("u", Value::Int(u))
            .with("g", Value::Int(u / 10));
        if !self.rng.chance(1, 3) {
            r = r.with("m", Value::Int(self.rng.gen_range(0, 5)));
        }
        r
    }

    fn value(&mut self, attr: &str) -> Value {
        if self.rng.chance(1, 10) {
            return Value::Null;
        }
        let hi = match attr {
            "u" => self.next_u + 2,
            "g" => self.next_u / 10 + 2,
            _ => 6,
        };
        Value::Int(self.rng.gen_range(-1, hi.max(1)))
    }

    fn predicate(&mut self) -> Predicate {
        let attr = *self.rng.pick(&["u", "g", "m"]);
        let op = *self.rng.pick(&[RelOp::Eq, RelOp::Lt, RelOp::Ge, RelOp::Ne]);
        Predicate::new(attr, op, self.value(attr))
    }

    /// One to three disjuncts; each conjoins up to two attribute
    /// predicates with an optional `FILE = x` or `FILE != x` (x may
    /// name no file at all).
    fn query(&mut self) -> Query {
        let disjuncts = (0..1 + self.rng.index(3))
            .map(|_| {
                let mut preds: Vec<Predicate> =
                    (0..1 + self.rng.index(2)).map(|_| self.predicate()).collect();
                let file = *self.rng.pick(&["a", "b", "c"]);
                match self.rng.index(3) {
                    0 => preds.insert(0, Predicate::eq("FILE", Value::str(file))),
                    1 => preds.push(Predicate::new("FILE", RelOp::Ne, Value::str(file))),
                    _ => {}
                }
                Conjunction::new(preds)
            })
            .collect();
        Query::new(disjuncts)
    }

    fn request(&mut self) -> Request {
        match self.rng.index(10) {
            0..=5 => {
                let duplicate = self.rng.chance(1, 8);
                Request::Insert { record: self.record(duplicate) }
            }
            6 | 7 => {
                let attr = *self.rng.pick(&["u", "g", "m"]);
                let value = self.value(attr);
                Request::Update {
                    query: self.query(),
                    modifier: Modifier { attr: attr.to_owned(), value },
                }
            }
            _ => {
                // Pin one group per disjunct so deletes thin the store
                // instead of emptying it.
                let g = Predicate::eq("g", Value::Int(self.rng.gen_range(0, self.next_u / 10 + 1)));
                let mut query = self.query();
                for conj in &mut query.disjuncts {
                    conj.predicates.push(g.clone());
                }
                Request::Delete { query }
            }
        }
    }
}

fn new_store(indexing: bool) -> Store {
    let mut s = Store::with_indexing(indexing);
    for file in FILES {
        s.create_file(file);
    }
    s.add_unique_constraint("a", vec!["u".to_owned()]);
    s
}

#[test]
fn indexed_and_scanned_stores_agree_through_churn() {
    for seed in 0..SEEDS {
        let mut g = Gen { rng: Prng::seed_from_u64(seed), next_u: 0 };
        let mut indexed = new_store(true);
        let mut scanned = new_store(false);
        for op in 0..OPS {
            let write = g.request();
            let a = indexed.execute(&write);
            let b = scanned.execute(&write);
            let ctx = format!("seed {seed} op {op}: {write}");
            assert_eq!(a.as_ref().map(|r| r.affected), b.as_ref().map(|r| r.affected), "{ctx}");

            let query = g.query();
            let read =
                Request::Retrieve { query: query.clone(), target: TargetList::all(), by: None };
            let a = indexed.execute(&read).expect("indexed retrieve");
            let b = scanned.execute(&read).expect("scanned retrieve");
            assert_eq!(a.records(), b.records(), "seed {seed} op {op}: {read}");
            assert!(a.stats.records_examined <= b.stats.records_examined, "{read}");
            // Both stores share the FILE re-check, so also hold them to
            // the definition of a match.
            let mut want: Vec<_> =
                scanned.iter_records().filter(|(_, r)| query.matches(r)).collect();
            want.sort_by_key(|(k, _)| *k);
            let got: Vec<_> = a.records().iter().map(|(k, r)| (*k, r)).collect();
            assert_eq!(got, want, "seed {seed} op {op}: {read}");
        }
        let all = |s: &Store| s.iter_records().map(|(k, r)| (k, r.clone())).collect::<Vec<_>>();
        assert_eq!(all(&indexed), all(&scanned), "seed {seed}: final contents");
        assert!(!indexed.is_empty(), "seed {seed}: churn emptied the store");
    }
}
