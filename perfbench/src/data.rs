//! The keyed-file data set and the seeded ABDL request generator
//! shared by `point_read`, `ingest_tcp` and `elastic`, with the
//! per-response answer checks.
//!
//! Every database holds one kernel file `t` of `rows` records
//! `(u, g, v)`: `u` is the unique key, `g = u mod rows/10` puts exactly
//! ten seeded records in each group (the selective non-key read), and
//! `v` is a payload derived from `u`. Fresh inserts use keys above the
//! seeded range and a negative group, so no later read's expected
//! answer depends on another client's progress.

use crate::probe::LOAD_CHUNK;
use abdl::prng::Prng;
use abdl::{Kernel, Record, Request, Response, Value};
use mlds::{abdl, kernel_file, NamespacedKernel};
use std::collections::HashMap;

/// The kernel file of every keyed database.
pub const FILE: &str = "t";

/// Distinct `g` values among the seeded rows.
pub fn groups(rows: i64) -> i64 {
    (rows / 10).max(1)
}

/// The payload seeded for key `u`.
pub fn payload(u: i64) -> i64 {
    u.wrapping_mul(2_654_435_761).rem_euclid(1_000_003)
}

/// Create database `db`'s file and bulk-load its `rows` seeded records
/// through `execute_batch` group commits.
pub fn seed_db<K: Kernel>(kernel: &mut K, db: &str, rows: i64) -> abdl::Result<()> {
    {
        let mut ns = NamespacedKernel::new(kernel, db);
        ns.create_file(FILE);
        ns.add_unique_constraint(FILE, vec!["u".to_owned()]);
    }
    let file = kernel_file(db, FILE);
    let g = groups(rows);
    let mut batch = Vec::with_capacity(LOAD_CHUNK);
    for u in 0..rows {
        batch.push(Request::Insert { record: record(&file, u, u % g, payload(u)) });
        if batch.len() == LOAD_CHUNK || u + 1 == rows {
            for res in kernel.execute_batch(&batch) {
                res?;
            }
            batch.clear();
        }
    }
    Ok(())
}

fn record(file: &str, u: i64, g: i64, v: i64) -> Record {
    Record::from_pairs([("FILE", Value::str(file))])
        .with("u", Value::Int(u))
        .with("g", Value::Int(g))
        .with("v", Value::Int(v))
}

/// The operation mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 90 % reads (15/16 point reads by key, 1/16 ten-record group
    /// reads sent to every backend), 10 % fresh inserts.
    PointRead,
    /// 70 % fresh inserts, 20 % single-key updates, 10 % point reads.
    Ingest,
}

/// What a correct answer looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Exactly one record `(u, g, v)`.
    Point { u: i64, g: i64, v: i64 },
    /// Exactly the seeded records of group `g`, keys `us`.
    Group { g: i64, us: Vec<i64> },
    /// One record inserted or updated.
    Affected,
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// The request in ABDL text (what the client parses and submits).
    pub text: String,
    /// A query (true) or an insert/update (false).
    pub read: bool,
    /// The answer it must get.
    pub expect: Expect,
}

/// One client's seeded operation stream. Clients of a shared database
/// read and update disjoint key slices (`u mod clients == client`), so
/// each knows the current value of every key it reads.
pub struct Gen {
    rng: Prng,
    mix: Mix,
    rows: i64,
    client: i64,
    clients: i64,
    issued: u64,
    inserted: i64,
    updated: HashMap<i64, i64>,
    poison_every: u64,
}

impl Gen {
    /// Stream number `stream` of `seed`, for `client` (of `clients`
    /// sharing one database) over `rows` seeded rows.
    pub fn new(
        seed: u64,
        stream: usize,
        client: usize,
        clients: usize,
        rows: i64,
        mix: Mix,
    ) -> Gen {
        let stream = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((stream as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        Gen {
            rng: Prng::seed_from_u64(stream),
            mix,
            rows,
            client: client as i64,
            clients: clients.max(1) as i64,
            issued: 0,
            inserted: 0,
            updated: HashMap::new(),
            poison_every: 0,
        }
    }

    /// Corrupt the expected answer of every `every`-th operation that
    /// is a point read (0 = never).
    pub fn poison(mut self, every: u64) -> Gen {
        self.poison_every = every;
        self
    }

    /// Fresh keys inserted so far, in order.
    pub fn inserted_keys(&self) -> impl Iterator<Item = i64> + '_ {
        (1..=self.inserted).map(|i| self.fresh_key(i))
    }

    fn fresh_key(&self, i: i64) -> i64 {
        self.rows + self.client * 1_000_000_000 + i
    }

    /// The record inserted for fresh key `u` of this client.
    pub fn fresh_record(&self, db: &str, u: i64) -> Record {
        record(&kernel_file(db, FILE), u, -1 - self.client, payload(u))
    }

    fn own_key(&mut self) -> i64 {
        let slice = (self.rows - self.client + self.clients - 1) / self.clients;
        self.client + self.clients * self.rng.index(slice.max(1) as usize) as i64
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let roll = self.rng.gen_range(0, 100);
        let (read_pct, update_pct) = match self.mix {
            Mix::PointRead => (90, 0),
            Mix::Ingest => (10, 20),
        };
        if roll < read_pct {
            if self.mix == Mix::PointRead && self.rng.index(16) == 15 {
                let g = self.rng.gen_range(0, groups(self.rows));
                let gs = groups(self.rows);
                let us = (0..).map(|j| g + j * gs).take_while(|&u| u < self.rows).collect();
                return Op {
                    text: format!("RETRIEVE ((FILE = {FILE}) and (g = {g})) (*)"),
                    read: true,
                    expect: Expect::Group { g, us },
                };
            }
            let u = self.own_key();
            let mut v = self.updated.get(&u).copied().unwrap_or_else(|| payload(u));
            if self.poison_every > 0 && self.issued % self.poison_every == 0 {
                v += 1;
            }
            return Op {
                text: format!("RETRIEVE ((FILE = {FILE}) and (u = {u})) (*)"),
                read: true,
                expect: Expect::Point { u, g: u % groups(self.rows), v },
            };
        }
        if roll < read_pct + update_pct {
            let u = self.own_key();
            let v = self.rng.gen_range(0, 1_000_003);
            self.updated.insert(u, v);
            return Op {
                text: format!("UPDATE ((FILE = {FILE}) and (u = {u})) (v = {v})"),
                read: false,
                expect: Expect::Affected,
            };
        }
        self.inserted += 1;
        let u = self.fresh_key(self.inserted);
        Op {
            text: format!(
                "INSERT (<FILE, {FILE}>, <u, {u}>, <g, {}>, <v, {}>)",
                -1 - self.client,
                payload(u)
            ),
            read: false,
            expect: Expect::Affected,
        }
    }
}

/// Check one answer against its expectation.
pub fn check(expect: &Expect, result: &abdl::Result<Response>) -> Result<(), String> {
    let resp = result.as_ref().map_err(|e| format!("request failed: {e}"))?;
    let int = |r: &Record, a: &str| match r.get(a) {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    };
    match expect {
        Expect::Point { u, g, v } => {
            let recs = resp.records();
            if recs.len() != 1 {
                return Err(format!("point read u={u}: {} records, expected 1", recs.len()));
            }
            let r = &recs[0].1;
            let got = (int(r, "u"), int(r, "g"), int(r, "v"));
            if got != (Some(*u), Some(*g), Some(*v)) {
                return Err(format!("point read u={u}: got {got:?}, expected ({u}, {g}, {v})"));
            }
        }
        Expect::Group { g, us } => {
            let mut got: Vec<i64> = resp
                .records()
                .iter()
                .filter(|(_, r)| int(r, "g") == Some(*g))
                .filter_map(|(_, r)| int(r, "u"))
                .collect();
            got.sort_unstable();
            if got != *us || resp.records().len() != us.len() {
                return Err(format!(
                    "group read g={g}: {} records, expected keys {us:?}",
                    resp.records().len()
                ));
            }
        }
        Expect::Affected => {
            if resp.affected != 1 {
                return Err(format!("write affected {} records, expected 1", resp.affected));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_yields_the_same_stream() {
        for mix in [Mix::PointRead, Mix::Ingest] {
            let a: Vec<String> = (0..500)
                .scan(Gen::new(7, 1, 1, 2, 2000, mix), |g, _| Some(g.next_op().text))
                .collect();
            let b: Vec<String> = (0..500)
                .scan(Gen::new(7, 1, 1, 2, 2000, mix), |g, _| Some(g.next_op().text))
                .collect();
            let c: Vec<String> = (0..500)
                .scan(Gen::new(8, 1, 1, 2, 2000, mix), |g, _| Some(g.next_op().text))
                .collect();
            assert_eq!(a, b);
            assert_ne!(a, c, "another seed gives another stream");
        }
    }

    #[test]
    fn the_mixes_have_their_shares() {
        let mut g = Gen::new(3, 0, 0, 1, 2000, Mix::Ingest);
        let ops: Vec<Op> = (0..10_000).map(|_| g.next_op()).collect();
        let inserts = ops.iter().filter(|o| o.text.starts_with("INSERT")).count();
        let updates = ops.iter().filter(|o| o.text.starts_with("UPDATE")).count();
        assert!((6500..7500).contains(&inserts), "{inserts}");
        assert!((1600..2400).contains(&updates), "{updates}");
        let mut g = Gen::new(3, 0, 0, 1, 2000, Mix::PointRead);
        let ops: Vec<Op> = (0..16_000).map(|_| g.next_op()).collect();
        let group = ops.iter().filter(|o| matches!(o.expect, Expect::Group { .. })).count();
        assert!((700..1100).contains(&group), "{group}");
    }

    #[test]
    fn a_wrong_expected_value_is_caught() {
        let rec = record(FILE, 5, 5, payload(5));
        let resp = Ok(Response::with_records(vec![(abdl::DbKey(1), rec)], Default::default()));
        let right = Expect::Point { u: 5, g: 5, v: payload(5) };
        let wrong = Expect::Point { u: 5, g: 5, v: payload(5) + 1 };
        assert!(check(&right, &resp).is_ok());
        assert!(check(&wrong, &resp).is_err());
        assert!(check(&Expect::Affected, &resp).is_err(), "a read affects nothing");
    }
}
