//! `languages`: one client drives the five language interfaces round
//! robin over the durable in-process configuration — SQL on a
//! relational database, DL/I on a hierarchical one, CODASYL-DML on a
//! network one, CODASYL-DML on the functional University database (the
//! cross-model path through the schema transformation), and Daplex on
//! the University database.
//!
//! Each interaction is one `Mlds::execute_*` call: about 80 % queries,
//! 20 % inserts or updates. Every answer's row count and values are
//! checked against what the generator knows the database holds; after
//! the timed phase each database's record count must equal its seeded
//! rows plus the inserts that succeeded.

use crate::probe::{BulkLoad, Probe, TimedKernel, BULK_KEY_BASE};
use crate::report::{Report, LANGUAGE_LAYERS};
use crate::service::K;
use crate::stats::{percentile_of, ratio};
use crate::{
    build_repeatedly, nproc, rss_mib, trace_overhead, traced_at, CpuMarks, Opts, Sample, Scratch,
    SETUPS,
};
use abdl::prng::Prng;
use abdl::{Kernel as _, Value};
use mlds::{
    abdl, codasyl, daplex, dli, mbds, relational, CodasylSession, DaplexSession, HierSession, Mlds,
    NamespacedKernel, SqlSession, StatementOutput,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BACKENDS: usize = 4;

const SQL_DDL: &str = "
CREATE DATABASE payroll;
CREATE TABLE emp (
    eno INTEGER NOT NULL, name CHAR(20), dept INTEGER, sal INTEGER, PRIMARY KEY (eno));
";

const DBD: &str = "
HIERARCHY NAME IS school.
SEGMENT department.
  02 dno TYPE IS FIXED.
  02 dname TYPE IS CHARACTER 20.
  SEQUENCE IS dno.
SEGMENT course PARENT IS department.
  02 cno TYPE IS FIXED.
  02 title TYPE IS CHARACTER 30.
  SEQUENCE IS cno.
";

const NET_DDL: &str = "
SCHEMA NAME IS airline.
RECORD NAME IS flight.
  02 num TYPE IS FIXED.
  02 dest TYPE IS CHARACTER 10.
  02 seats TYPE IS FIXED.
SET NAME IS system_flight.
  OWNER IS SYSTEM.
  MEMBER IS flight.
  INSERTION IS AUTOMATIC.
  RETENTION IS FIXED.
  SET SELECTION IS BY APPLICATION.
";

const MAJORS: [&str; 4] = ["CS", "Math", "Physics", "History"];
/// Courses seeded under each department.
const COURSES: i64 = 4;

/// Data-set sizes.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    emps: i64,
    depts: i64,
    flights: i64,
    students: i64,
}

impl Sizes {
    fn of(opts: &Opts) -> Sizes {
        if opts.short {
            Sizes { emps: 300, depts: 50, flights: 300, students: 300 }
        } else {
            Sizes { emps: 10_000, depts: 1_000, flights: 10_000, students: 10_000 }
        }
    }
}

fn emp_name(e: i64) -> String {
    format!("e{e}")
}
fn emp_sal(e: i64) -> i64 {
    1000 + e * 37 % 9000
}
fn title(c: i64) -> String {
    format!("t{c}")
}
fn dest(f: i64) -> String {
    format!("c{}", f % 50)
}
fn seats(f: i64) -> i64 {
    100 + f % 200
}
fn student(i: i64) -> String {
    format!("s{i}")
}
fn age(i: i64) -> i64 {
    17 + i % 13
}

type Kernel = TimedKernel<mbds::Controller>;

struct System {
    mlds: Mlds<Kernel>,
    sql: SqlSession,
    dli: HierSession,
    net: CodasylSession,
    func: CodasylSession,
    dap: DaplexSession,
    probe: Arc<Probe>,
    // Declared last: removed after the controller has shut down.
    _scratch: Scratch,
}

fn build(sizes: Sizes) -> mlds::Result<System> {
    let scratch = Scratch::new("languages");
    let probe = Probe::new();
    let controller = mbds::Controller::durable(BACKENDS, K, scratch.path())?;
    let mut mlds = Mlds::with_kernel(TimedKernel::new(controller, probe.clone()));
    mlds.create_database(SQL_DDL)?;
    mlds.create_database(DBD)?;
    mlds.create_database(NET_DDL)?;
    mlds.create_database(daplex::university::UNIVERSITY_DDL)?;
    load(&mut mlds, sizes)?;
    let sql = mlds.connect_sql("sql", "payroll")?;
    let dli = mlds.connect_dli("dli", "school")?;
    let net = mlds.connect_codasyl("net", "airline")?;
    let func = mlds.connect_codasyl("func", "university")?;
    let dap = mlds.connect_daplex("dap", "university")?;
    Ok(System { mlds, sql, dli, net, func, dap, probe, _scratch: scratch })
}

/// Bulk-load every database in its language's kernel layout, through
/// `execute_batch` group commits.
fn load(mlds: &mut Mlds<Kernel>, sizes: Sizes) -> mlds::Result<()> {
    let emp = mlds.relational_schema("payroll").expect("payroll").table("emp").cloned();
    let emp = emp.expect("emp table");
    let net = mlds.network_schema("airline").expect("airline").clone();
    let uni = mlds.functional_schema("university").expect("university").clone();
    let mut next = BULK_KEY_BASE;
    load_db(mlds, &mut next, "payroll", |k| {
        for e in 0..sizes.emps {
            let key = k.reserve_key().0 as i64;
            let row = relational::ab_map::build_row(
                &emp,
                key,
                &[
                    ("eno".into(), Value::Int(e)),
                    ("name".into(), Value::str(emp_name(e))),
                    ("dept".into(), Value::Int(e % 100)),
                    ("sal".into(), Value::Int(emp_sal(e))),
                ],
            )?;
            k.execute(&abdl::Request::Insert { record: row })?;
        }
        Ok(())
    })?;
    load_db(mlds, &mut next, "school", |k| {
        for d in 0..sizes.depts {
            let dkey = k.reserve_key().0 as i64;
            let dept = abdl::Record::from_pairs([("FILE", Value::str("department"))])
                .with("department", Value::Int(dkey))
                .with("dno", Value::Int(d))
                .with("dname", Value::str(format!("d{d}")));
            k.execute(&abdl::Request::Insert { record: dept })?;
            for c in (0..COURSES).map(|j| d * 10 + j) {
                let ckey = k.reserve_key().0 as i64;
                let course = abdl::Record::from_pairs([("FILE", Value::str("course"))])
                    .with("course", Value::Int(ckey))
                    .with("cno", Value::Int(c))
                    .with("title", Value::str(title(c)))
                    .with(dli::schema::arc_attr("department", "course"), Value::Int(dkey));
                k.execute(&abdl::Request::Insert { record: course })?;
            }
        }
        Ok(())
    })?;
    load_db(mlds, &mut next, "airline", |k| {
        for f in 0..sizes.flights {
            let key = k.reserve_key().0 as i64;
            let rec = codasyl::ab_map::build_record(
                &net,
                "flight",
                key,
                &[
                    ("num".into(), Value::Int(f)),
                    ("dest".into(), Value::str(dest(f))),
                    ("seats".into(), Value::Int(seats(f))),
                ],
                &[("system_flight".into(), Value::Int(codasyl::ab_map::SYSTEM_OWNER_KEY))],
            )?;
            k.execute(&abdl::Request::Insert { record: rec })?;
        }
        Ok(())
    })?;
    load_db(mlds, &mut next, "university", |k| {
        let mut loader = daplex::ab_map::Loader::new(uni.clone());
        for i in 0..sizes.students {
            loader.create_entity(
                k,
                "student",
                &[
                    ("name", Value::str(student(i))),
                    ("age", Value::Int(age(i))),
                    ("major", Value::str(MAJORS[(i % 4) as usize])),
                    ("gpa", Value::Float(2.0 + (i % 20) as f64 / 10.0)),
                ],
            )?;
        }
        Ok(())
    })
}

type Loading<'a, 'b> = NamespacedKernel<'a, BulkLoad<'b, Kernel>>;

/// Run `f` against database `db` through a [`BulkLoad`] minting keys
/// from `next` onwards.
fn load_db(
    mlds: &mut Mlds<Kernel>,
    next: &mut u64,
    db: &str,
    f: impl FnOnce(&mut Loading) -> mlds::Result<()>,
) -> mlds::Result<()> {
    let mut bulk = BulkLoad::new(mlds.kernel_mut(), *next);
    f(&mut NamespacedKernel::new(&mut bulk, db))?;
    *next = bulk.finish()?;
    Ok(())
}

/// The five interfaces, in round-robin order (matches
/// [`LANGUAGE_LAYERS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lang {
    Sql,
    Dli,
    Network,
    Functional,
    Daplex,
}

const LANGS: [Lang; 5] = [Lang::Sql, Lang::Dli, Lang::Network, Lang::Functional, Lang::Daplex];

/// What a correct answer looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expect {
    /// The last statement's display is exactly this.
    Display(String),
    /// The last statement's display ends with this (the part after a
    /// database key the generator cannot know).
    DisplayEnds(String),
    /// The last statement's display starts with this.
    DisplayStarts(String),
    /// The last statement affected exactly one record.
    One,
}

/// One interaction: a script for one interface.
#[derive(Debug, Clone)]
struct Op {
    lang: Lang,
    script: String,
    read: bool,
    expect: Expect,
}

/// The seeded interaction stream, with the state the answers depend
/// on (updated values and inserted-row counts).
struct Gen {
    rng: Prng,
    sizes: Sizes,
    issued: u64,
    poison_every: u64,
    sal: HashMap<i64, i64>,
    titles: HashMap<i64, String>,
    seats: HashMap<i64, i64>,
    ages: HashMap<i64, i64>,
    /// Inserts per database: payroll, school, airline, university
    /// persons, university students.
    inserted: [i64; 5],
}

impl Gen {
    fn new(seed: u64, sizes: Sizes, poison_every: u64) -> Gen {
        Gen {
            rng: Prng::seed_from_u64(seed ^ 0x1a6a_ca6e_5eed),
            sizes,
            issued: 0,
            poison_every,
            sal: HashMap::new(),
            titles: HashMap::new(),
            seats: HashMap::new(),
            ages: HashMap::new(),
            inserted: [0; 5],
        }
    }

    fn next_op(&mut self) -> Op {
        let lang = LANGS[(self.issued % 5) as usize];
        self.issued += 1;
        let read = self.rng.gen_range(0, 100) < 80;
        let mut op = match (lang, read) {
            (Lang::Sql, true) => {
                let e = self.rng.gen_range(0, self.sizes.emps);
                let sal = self.sal.get(&e).copied().unwrap_or_else(|| emp_sal(e));
                Op {
                    lang,
                    script: format!("SELECT name, sal FROM emp WHERE eno = {e};"),
                    read,
                    expect: Expect::Display(format!(
                        "name | sal\n{} | {sal}\n(1 row(s))",
                        Value::str(emp_name(e))
                    )),
                }
            }
            (Lang::Sql, false) if self.rng.chance(1, 2) => {
                self.inserted[0] += 1;
                let e = self.sizes.emps + self.inserted[0];
                Op {
                    lang,
                    script: format!(
                        "INSERT INTO emp (eno, name, dept, sal) VALUES ({e}, 'n{e}', {}, {});",
                        e % 100,
                        emp_sal(e)
                    ),
                    read,
                    expect: Expect::One,
                }
            }
            (Lang::Sql, false) => {
                let e = self.rng.gen_range(0, self.sizes.emps);
                let sal = self.rng.gen_range(1000, 10_000);
                self.sal.insert(e, sal);
                Op {
                    lang,
                    script: format!("UPDATE emp SET sal = {sal} WHERE eno = {e};"),
                    read,
                    expect: Expect::One,
                }
            }
            (Lang::Dli, true) => {
                let d = self.rng.gen_range(0, self.sizes.depts);
                let c = d * 10 + self.rng.gen_range(0, COURSES);
                let t = self.titles.get(&c).cloned().unwrap_or_else(|| title(c));
                Op {
                    lang,
                    script: format!("GU department (dno = {d}) course (cno = {c})"),
                    read,
                    expect: Expect::DisplayEnds(format!(
                        " ( cno = {c}, title = {} )",
                        Value::str(t)
                    )),
                }
            }
            (Lang::Dli, false) if self.rng.chance(1, 2) => {
                self.inserted[1] += 1;
                let d = self.rng.gen_range(0, self.sizes.depts);
                let c = 1_000_000 + self.inserted[1];
                Op {
                    lang,
                    script: format!(
                        "GU department (dno = {d})\nISRT course (cno = {c}, title = 'n{c}')"
                    ),
                    read,
                    expect: Expect::One,
                }
            }
            (Lang::Dli, false) => {
                let d = self.rng.gen_range(0, self.sizes.depts);
                let c = d * 10 + self.rng.gen_range(0, COURSES);
                let t = format!("r{}", self.rng.gen_range(0, 1_000_000));
                self.titles.insert(c, t.clone());
                Op {
                    lang,
                    script: format!(
                        "GU department (dno = {d}) course (cno = {c})\nREPL course (title = '{t}')"
                    ),
                    read,
                    expect: Expect::One,
                }
            }
            (Lang::Network, true) => {
                let f = self.rng.gen_range(0, self.sizes.flights);
                let s = self.seats.get(&f).copied().unwrap_or_else(|| seats(f));
                Op {
                    lang,
                    script: format!(
                        "MOVE {f} TO num IN flight\nFIND ANY flight USING num IN flight\nGET flight"
                    ),
                    read,
                    expect: Expect::DisplayEnds(format!(
                        " ( num = {f}, dest = {}, seats = {s} )",
                        Value::str(dest(f))
                    )),
                }
            }
            (Lang::Network, false) if self.rng.chance(1, 2) => {
                self.inserted[2] += 1;
                let f = self.sizes.flights + self.inserted[2];
                Op {
                    lang,
                    script: format!(
                        "MOVE {f} TO num IN flight\nMOVE '{}' TO dest IN flight\n\
                         MOVE {} TO seats IN flight\nSTORE flight",
                        dest(f),
                        seats(f)
                    ),
                    read,
                    expect: Expect::DisplayStarts("stored #".into()),
                }
            }
            (Lang::Network, false) => {
                let f = self.rng.gen_range(0, self.sizes.flights);
                let s = self.rng.gen_range(1, 1000);
                self.seats.insert(f, s);
                Op {
                    lang,
                    script: format!(
                        "MOVE {f} TO num IN flight\nFIND ANY flight USING num IN flight\n\
                         MOVE {s} TO seats IN flight\nMODIFY seats IN flight"
                    ),
                    read,
                    expect: Expect::One,
                }
            }
            (Lang::Functional, true) => {
                let i = self.rng.gen_range(0, self.sizes.students);
                let a = self.ages.get(&i).copied().unwrap_or_else(|| age(i));
                Op {
                    lang,
                    script: format!(
                        "MOVE '{}' TO name IN person\nFIND ANY person USING name IN person\n\
                         GET person",
                        student(i)
                    ),
                    read,
                    expect: Expect::DisplayEnds(format!(
                        " ( name = {}, age = {a} )",
                        Value::str(student(i))
                    )),
                }
            }
            (Lang::Functional, false) => {
                self.inserted[3] += 1;
                let n = self.inserted[3];
                Op {
                    lang,
                    script: format!(
                        "MOVE 'p{n}' TO name IN person\nMOVE {} TO age IN person\nSTORE person",
                        age(n)
                    ),
                    read,
                    expect: Expect::DisplayStarts("stored #".into()),
                }
            }
            (Lang::Daplex, true) => {
                let i = self.rng.gen_range(0, self.sizes.students);
                let a = self.ages.get(&i).copied().unwrap_or_else(|| age(i));
                Op {
                    lang,
                    script: format!(
                        "FOR EACH student SUCH THAT name(student) = '{}' \
                         PRINT name(student), age(student), major(student);",
                        student(i)
                    ),
                    read,
                    expect: Expect::Display(format!(
                        "name = {}, age = {a}, major = {}",
                        Value::str(student(i)),
                        Value::str(MAJORS[(i % 4) as usize])
                    )),
                }
            }
            (Lang::Daplex, false) if self.rng.chance(1, 2) => {
                self.inserted[4] += 1;
                let n = self.inserted[4];
                Op {
                    lang,
                    script: format!(
                        "CREATE student (name := 'd{n}', age := {}, major := 'Art', gpa := 3.0);",
                        age(n)
                    ),
                    read,
                    expect: Expect::One,
                }
            }
            (Lang::Daplex, false) => {
                let i = self.rng.gen_range(0, self.sizes.students);
                let a = self.rng.gen_range(17, 90);
                self.ages.insert(i, a);
                Op {
                    lang,
                    script: format!(
                        "ASSIGN age(student) := {a} SUCH THAT name(student) = '{}';",
                        student(i)
                    ),
                    read,
                    expect: Expect::One,
                }
            }
        };
        if self.poison_every > 0 && self.issued % self.poison_every == 0 {
            if let Expect::Display(s) | Expect::DisplayEnds(s) = &mut op.expect {
                s.push('?');
            }
        }
        op
    }
}

impl System {
    fn execute(&mut self, op: &Op) -> mlds::Result<Vec<StatementOutput>> {
        let m = &mut self.mlds;
        match op.lang {
            Lang::Sql => m.execute_sql(&mut self.sql, &op.script),
            Lang::Dli => m.execute_dli(&mut self.dli, &op.script),
            Lang::Network => m.execute_codasyl(&mut self.net, &op.script),
            Lang::Functional => m.execute_codasyl(&mut self.func, &op.script),
            Lang::Daplex => m.execute_daplex(&mut self.dap, &op.script),
        }
    }

    /// Records in `file` of database `db`.
    fn count(&mut self, db: &str, file: &str) -> usize {
        let req = abdl::parse::parse_request(&format!("RETRIEVE (FILE = {file}) (*)"))
            .expect("static ABDL");
        NamespacedKernel::new(self.mlds.kernel_mut(), db)
            .execute(&req)
            .map_or(0, |r| r.records().len())
    }
}

fn check(op: &Op, result: &mlds::Result<Vec<StatementOutput>>) -> Result<(), String> {
    let outs = result.as_ref().map_err(|e| format!("{:?} failed: {e}", op.lang))?;
    let last = outs.last().ok_or("no statement output")?;
    let ok = match &op.expect {
        Expect::Display(s) => last.display == *s,
        Expect::DisplayEnds(s) => last.display.ends_with(s.as_str()),
        Expect::DisplayStarts(s) => last.display.starts_with(s.as_str()),
        Expect::One => last.affected == 1,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{:?} `{}`: got `{}` (affected {}), expected {:?}",
            op.lang, op.script, last.display, last.affected, op.expect
        ))
    }
}

/// One traced interaction's cost split.
struct Split {
    lang: Lang,
    statements: usize,
    total_ns: u64,
    kernel_ns: u64,
    kernel_requests: u64,
}

/// Run `languages`.
pub fn run(opts: &Opts) -> Report {
    let sizes = Sizes::of(opts);
    let mut report = Report::new("languages", opts.trace);
    report.config = vec![
        ("nproc", nproc().to_string()),
        ("transport", "in-process".into()),
        ("backends", BACKENDS.to_string()),
        ("k", K.to_string()),
        (
            "rows",
            format!(
                "emp {}, departments {} x {COURSES} courses, flights {}, students {}",
                sizes.emps, sizes.depts, sizes.flights, sizes.students
            ),
        ),
        ("seed", opts.seed.to_string()),
        ("clients", "1 (one session per interface, round robin)".into()),
        ("flush", "file WAL, sync_data per group commit".into()),
        ("trials", format!("{SETUPS} set-ups (median), 1 timed phase")),
        ("seconds", opts.seconds.to_string()),
    ];

    let (mut sys, setup) = build_repeatedly(|| build(sizes).expect("system set-up"), drop);
    let probe = sys.probe.clone();

    let mut gen = Gen::new(opts.seed, sizes, opts.poison_every);
    let mut samples = Vec::new();
    let mut splits = Vec::new();
    let length = Duration::from_secs_f64(opts.seconds);
    let mut cpu = CpuMarks::default();
    let start = Instant::now();
    cpu.mark(probe.since_epoch(start));
    while start.elapsed() < length {
        probe.set(traced_at(opts, start.elapsed()));
        let op = gen.next_op();
        let (k0, r0) = (probe.kernel_ns(), probe.kernel_requests());
        let t0 = Instant::now();
        let result = sys.execute(&op);
        let lat = t0.elapsed().as_nanos() as u64;
        cpu.mark_every_slice(probe.since_epoch(Instant::now()));
        let traced = probe.is_on();
        let n = result.as_ref().map_or(0, Vec::len);
        samples.push(Sample {
            t0: probe.since_epoch(t0),
            lat,
            read: op.read,
            traced,
            units: n as u32,
        });
        if traced && n > 0 {
            splits.push(Split {
                lang: op.lang,
                statements: n,
                total_ns: lat,
                kernel_ns: probe.kernel_ns() - k0,
                kernel_requests: probe.kernel_requests() - r0,
            });
        }
        report.count(check(&op, &result));
    }
    let elapsed = start.elapsed().as_secs_f64();
    cpu.mark(probe.since_epoch(Instant::now()));
    probe.set(false);
    let rss_after = rss_mib();

    // Every database holds its seeded rows plus the inserts that
    // succeeded (all of them, on a correct run).
    let ins = gen.inserted;
    for (db, file, want) in [
        ("payroll", "emp", sizes.emps + ins[0]),
        ("school", "course", sizes.depts * COURSES + ins[1]),
        ("airline", "flight", sizes.flights + ins[2]),
        ("university", "person", sizes.students + ins[3] + ins[4]),
        ("university", "student", sizes.students + ins[4]),
    ] {
        let got = sys.count(db, file);
        report.check(format!("{db}.{file} holds {want} records (found {got})"), got as i64 == want);
    }
    let calls = probe.calls();
    drop(sys);

    if opts.trace {
        let (overhead, n) = trace_overhead(&[samples.clone()]);
        report.set("trace.overhead", overhead, n);
        let reads = samples.iter().filter(|s| s.traced && s.read).count();
        report.kernel_layers(&calls, reads);
        for (lang, layer) in LANGS.iter().zip(LANGUAGE_LAYERS) {
            let mine: Vec<&Split> = splits.iter().filter(|s| s.lang == *lang).collect();
            let per = |f: &dyn Fn(&Split) -> u64| -> Vec<u64> {
                mine.iter().map(|s| f(s) / s.statements as u64).collect()
            };
            let mut own = per(&|s| s.total_ns.saturating_sub(s.kernel_ns));
            let mut kernel = per(&|s| s.kernel_ns);
            let stmts: usize = mine.iter().map(|s| s.statements).sum();
            let reqs: u64 = mine.iter().map(|s| s.kernel_requests).sum();
            let n = mine.len();
            report.set(layer_metric(layer, "self_us"), percentile_of(&mut own, 50.0) / 1e3, n);
            report.set(layer_metric(layer, "kernel_us"), percentile_of(&mut kernel, 50.0) / 1e3, n);
            report.set(layer_metric(layer, "abdl_per_stmt"), ratio(reqs as f64, stmts as f64), n);
        }
    }
    let start_ns = probe.since_epoch(start);
    report.end_to_end(opts, &samples, start_ns, elapsed, &cpu, None, &setup, rss_after);
    report
}

/// `<layer>.<what>` as a catalogue name.
fn layer_metric(layer: &str, what: &str) -> &'static str {
    let name = format!("{layer}.{what}");
    crate::report::PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .map(|d| d.name)
        .expect("every language layer metric is catalogued")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripts(seed: u64) -> Vec<String> {
        let sizes = Sizes { emps: 300, depts: 50, flights: 300, students: 300 };
        let mut gen = Gen::new(seed, sizes, 0);
        (0..500).map(|_| gen.next_op().script).collect()
    }

    #[test]
    fn the_same_seed_yields_the_same_stream() {
        assert_eq!(scripts(5), scripts(5));
        assert_ne!(scripts(5), scripts(6));
    }

    #[test]
    fn every_interface_takes_its_turn_with_about_a_fifth_writes() {
        let sizes = Sizes { emps: 300, depts: 50, flights: 300, students: 300 };
        let mut gen = Gen::new(1, sizes, 0);
        let ops: Vec<Op> = (0..5000).map(|_| gen.next_op()).collect();
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.lang, LANGS[i % 5]);
        }
        let writes = ops.iter().filter(|o| !o.read).count();
        assert!((800..1200).contains(&writes), "{writes}");
    }
}
