//! The kernel store: files, directory indexes, and the request executor.

use super::postings::{post, unpost, Postings};
use super::response::{GroupRow, Response};
use super::stats::{ExecStats, ExecTotals};
use crate::error::{Error, Result};
use crate::query::{Conjunction, Predicate, Query, RelOp};
use crate::record::{DbKey, Record};
use crate::request::{Aggregate, Request, Target, TargetList, Transaction};
use crate::value::Value;
use crate::FILE_ATTR;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;

/// One kernel file: a set of records plus its directory indexes.
#[derive(Debug, Clone)]
struct FileData {
    /// The file's name, interned: every key→file entry shares it.
    name: Arc<str>,
    /// Records keyed by database key (ordered: insertion order is key
    /// order, which makes FIND FIRST/NEXT navigation deterministic).
    records: BTreeMap<DbKey, Record>,
    /// Directory: per-attribute value index, keyed by the store's
    /// interned names. `FILE` is not indexed — every record of this
    /// `FileData` has the same `FILE` value.
    indexes: HashMap<Arc<str>, BTreeMap<Value, Postings>>,
    /// `DUPLICATES ARE NOT ALLOWED` attribute groups.
    unique_groups: Vec<Vec<String>>,
}

impl FileData {
    fn index_insert(&mut self, key: DbKey, record: &Record) {
        for kw in record.keywords().iter().filter(|kw| &*kw.attr != FILE_ATTR) {
            let by_value = self.indexes.entry(Arc::clone(&kw.attr)).or_default();
            post(by_value, kw.value.clone(), key);
        }
    }

    fn index_remove(&mut self, key: DbKey, record: &Record) {
        for kw in record.keywords() {
            if let Some(by_value) = self.indexes.get_mut(&kw.attr) {
                unpost(by_value, &kw.value, key);
            }
        }
    }
}

/// The store's one copy of the attribute name `name`, added on first
/// sight. Names stay for the store's lifetime: one per distinct name
/// ever stored or updated, which the schemas bound.
fn intern(names: &mut HashSet<Arc<str>>, name: &str) -> Arc<str> {
    if let Some(shared) = names.get(name) {
        return Arc::clone(shared);
    }
    let shared: Arc<str> = Arc::from(name);
    names.insert(Arc::clone(&shared));
    shared
}

/// A query's matches: the file and key of each matching record.
type Matches = Vec<(Arc<str>, DbKey)>;

/// The named file, created empty when absent.
fn file_entry<'a>(files: &'a mut BTreeMap<String, FileData>, name: &str) -> &'a mut FileData {
    if !files.contains_key(name) {
        let data = FileData {
            name: Arc::from(name),
            records: BTreeMap::new(),
            indexes: HashMap::new(),
            unique_groups: Vec::new(),
        };
        files.insert(name.to_owned(), data);
    }
    files.get_mut(name).expect("file just ensured")
}

/// A single-site kernel database: the KDS of a one-backend MLDS, or one
/// backend's partition of the Multi-Backend Database System.
#[derive(Debug, Default, Clone)]
pub struct Store {
    files: BTreeMap<String, FileData>,
    /// Intern table: every stored keyword's attribute name points at
    /// its one entry here.
    names: HashSet<Arc<str>>,
    /// Which file each stored key lives in, so point lookups by key
    /// need not scan every file. The names are the files' own interned
    /// ones, shared rather than copied per key.
    key_files: HashMap<DbKey, Arc<str>>,
    next_key: u64,
    indexing: bool,
    /// Lifetime execution counters (see [`ExecTotals`]).
    totals: ExecTotals,
}

impl Store {
    /// An empty store with directory indexing enabled.
    pub fn new() -> Self {
        Store {
            files: BTreeMap::new(),
            names: HashSet::new(),
            key_files: HashMap::new(),
            next_key: 1,
            indexing: true,
            totals: ExecTotals::default(),
        }
    }

    /// An empty store with indexing configurable — `false` forces full
    /// file scans (the directory-ablation mode of experiment E-dir).
    pub fn with_indexing(indexing: bool) -> Self {
        Store { indexing, ..Store::new() }
    }

    /// Declare a kernel file (idempotent). Files are also auto-created
    /// on first INSERT; explicit creation lets empty files be RETRIEVEd
    /// without an [`Error::UnknownFile`].
    pub fn create_file(&mut self, name: impl Into<String>) {
        file_entry(&mut self.files, &name.into());
    }

    /// Register a `DUPLICATES ARE NOT ALLOWED` constraint on a file.
    /// INSERTs whose values for *all* attributes of the group duplicate
    /// an existing record's are rejected.
    pub fn add_unique_constraint(&mut self, file: impl Into<String>, attrs: Vec<String>) {
        let groups = &mut file_entry(&mut self.files, &file.into()).unique_groups;
        // Idempotent: re-registering an existing group (a reloaded
        // schema, a repeated `.spawn` seed) must not double-check it.
        if !groups.contains(&attrs) {
            groups.push(attrs);
        }
    }

    /// Names of all files, in sorted order.
    pub fn file_names(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// Number of records in `file` (0 when absent).
    pub fn file_len(&self, file: &str) -> usize {
        self.files.get(file).map_or(0, |f| f.records.len())
    }

    /// Total records across all files.
    pub fn len(&self) -> usize {
        self.files.values().map(|f| f.records.len()).sum()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look a record up by database key. Goes through the key→file map
    /// rather than scanning every file.
    pub fn get(&self, key: DbKey) -> Option<&Record> {
        self.files.get(&**self.key_files.get(&key)?)?.records.get(&key)
    }

    /// Iterate every record in the store, in (file, key) order — the
    /// snapshot/dump traversal.
    pub fn iter_records(&self) -> impl Iterator<Item = (DbKey, &Record)> {
        self.files.values().flat_map(|f| f.records.iter().map(|(k, r)| (*k, r)))
    }

    /// The registered `DUPLICATES ARE NOT ALLOWED` groups, per file.
    pub fn unique_constraints(&self) -> impl Iterator<Item = (&str, &[Vec<String>])> {
        self.files.iter().filter_map(|(name, f)| {
            (!f.unique_groups.is_empty())
                .then_some((name.as_str(), f.unique_groups.as_slice()))
        })
    }

    /// Reserve the next database key without inserting (the MBDS
    /// controller assigns keys centrally so that keys are unique across
    /// backends).
    pub fn reserve_key(&mut self) -> DbKey {
        let key = DbKey(self.next_key);
        self.next_key += 1;
        key
    }

    /// Raw insert with a caller-provided key (MBDS partition loading).
    /// Uniqueness constraints are *not* checked here — the controller
    /// checks them globally.
    pub fn insert_with_key(&mut self, key: DbKey, record: Record) -> Result<()> {
        self.next_key = self.next_key.max(key.0 + 1);
        self.store_record(key, record)
    }

    /// File, index and key→file bookkeeping shared by every insert.
    /// Interns the record in place: each attribute name becomes the
    /// store's shared copy, and the `FILE` value the file's own name.
    fn store_record(&mut self, key: DbKey, mut record: Record) -> Result<()> {
        let file = record.file().ok_or(Error::MissingFileKeyword)?;
        let data = file_entry(&mut self.files, file);
        for kw in record.keywords_mut() {
            if &*kw.attr == FILE_ATTR && kw.value.as_str() == Some(&*data.name) {
                kw.value = Value::Str(Arc::clone(&data.name));
            }
            kw.attr = intern(&mut self.names, &kw.attr);
        }
        self.key_files.insert(key, Arc::clone(&data.name));
        if self.indexing {
            data.index_insert(key, &record);
        }
        data.records.insert(key, record);
        Ok(())
    }

    /// Raw lookup by database key (MBDS chunked group moves: the
    /// controller fetches exactly the keys of one move chunk instead of
    /// scanning whole files). Returns `None` when the key is not stored
    /// here.
    pub fn record_by_key(&self, key: DbKey) -> Option<&Record> {
        self.get(key)
    }

    /// Raw removal by database key (MBDS group moves: a record whose
    /// replica group migrated away is physically deleted from its old
    /// home so broadcast reads cannot resurrect it). Index maintenance
    /// included; uniqueness bookkeeping stays with the controller, as
    /// with [`Store::insert_with_key`]. Returns the removed record, or
    /// `None` when the key was not stored here.
    pub fn remove_by_key(&mut self, key: DbKey) -> Option<Record> {
        let file = self.key_files.remove(&key)?;
        let data = self.files.get_mut(&*file)?;
        let record = data.records.remove(&key)?;
        if self.indexing {
            data.index_remove(key, &record);
        }
        Some(record)
    }

    /// Cumulative execution counters since the store was built.
    pub fn exec_totals(&self) -> ExecTotals {
        self.totals
    }

    /// Execute a single request.
    pub fn execute(&mut self, request: &Request) -> Result<Response> {
        self.totals.requests += 1;
        let resp = match request {
            Request::Insert { record } => self.exec_insert(record.clone()),
            Request::Delete { query } => self.exec_delete(query),
            Request::Update { query, modifier } => {
                self.exec_update(query, &modifier.attr, &modifier.value)
            }
            Request::Retrieve { query, target, by } => {
                self.exec_retrieve(query, target, by.as_deref())
            }
            Request::RetrieveCommon { left, left_attr, right, right_attr, target } => {
                self.exec_retrieve_common(left, left_attr, right, right_attr, target)
            }
        };
        if let Ok(resp) = &resp {
            self.totals.records_examined += resp.stats.records_examined;
        }
        resp
    }

    /// Execute requests sequentially; stops at the first error.
    pub fn execute_transaction(&mut self, txn: &Transaction) -> Result<Vec<Response>> {
        txn.requests.iter().map(|r| self.execute(r)).collect()
    }

    // ----- INSERT ---------------------------------------------------

    fn exec_insert(&mut self, record: Record) -> Result<Response> {
        let file_name = record.file().ok_or(Error::MissingFileKeyword)?;
        let mut stats = ExecStats::default();
        // Uniqueness check against registered groups.
        if let Some(data) = self.files.get(file_name) {
            for group in &data.unique_groups {
                if group.iter().all(|a| record.get(a).is_some()) {
                    let probe = Query::conjunction(
                        group
                            .iter()
                            .map(|a| {
                                Predicate::eq(
                                    a.clone(),
                                    record.get(a).expect("checked present").clone(),
                                )
                            })
                            .collect(),
                    );
                    let (hits, s) = self.eval_query_in_file(data, &probe);
                    stats += s;
                    if !hits.is_empty() {
                        return Err(Error::DuplicateKey {
                            file: file_name.to_owned(),
                            attrs: group.clone(),
                        });
                    }
                }
            }
        }
        let key = self.reserve_key();
        self.store_record(key, record)?;
        stats.records_written += 1;
        stats.finish(1);
        Ok(Response::with_affected(1, stats))
    }

    // ----- DELETE ---------------------------------------------------

    fn exec_delete(&mut self, query: &Query) -> Result<Response> {
        let (matches, mut stats) = self.eval_query(query)?;
        let mut affected = 0usize;
        for (file, key) in matches {
            let data = self.files.get_mut(&*file).expect("matched file exists");
            if let Some(record) = data.records.remove(&key) {
                if self.indexing {
                    data.index_remove(key, &record);
                }
                self.key_files.remove(&key);
                affected += 1;
            }
        }
        stats.records_written += affected as u64;
        stats.finish(1);
        Ok(Response::with_affected(affected, stats))
    }

    // ----- UPDATE ---------------------------------------------------

    /// Updates each matched record in place; only the modified
    /// attribute's directory entry moves.
    fn exec_update(&mut self, query: &Query, attr: &str, value: &Value) -> Result<Response> {
        let (matches, mut stats) = self.eval_query(query)?;
        let attr = intern(&mut self.names, attr);
        let indexed = self.indexing && &*attr != FILE_ATTR;
        let mut affected = 0usize;
        for (file, key) in matches {
            let data = self.files.get_mut(&*file).expect("matched file exists");
            let Some(record) = data.records.get_mut(&key) else { continue };
            let old = record.get(&attr).cloned();
            record.set(Arc::clone(&attr), value.clone());
            if indexed {
                let by_value = data.indexes.entry(Arc::clone(&attr)).or_default();
                if let Some(old) = &old {
                    unpost(by_value, old, key);
                }
                post(by_value, value.clone(), key);
            }
            affected += 1;
        }
        stats.records_written += affected as u64;
        stats.finish(1);
        Ok(Response::with_affected(affected, stats))
    }

    // ----- RETRIEVE -------------------------------------------------

    fn exec_retrieve(
        &mut self,
        query: &Query,
        target: &TargetList,
        by: Option<&str>,
    ) -> Result<Response> {
        let (matches, mut stats) = self.eval_query(query)?;
        let mut records: Vec<(DbKey, Record)> = matches
            .into_iter()
            .map(|(file, key)| {
                let rec = self.files[&*file].records[&key].clone();
                (key, rec)
            })
            .collect();
        records.sort_by_key(|(k, _)| *k);

        if target.has_aggregates() {
            let groups = aggregate(&records, target, by)?;
            stats.records_returned = groups.len() as u64;
            stats.finish(1);
            let mut resp = Response::with_records(Vec::new(), stats);
            resp.groups = Some(groups);
            return Ok(resp);
        }

        // Plain retrieval: optional by-clause groups (sorts) the output.
        if let Some(by_attr) = by {
            records.sort_by(|(ka, a), (kb, b)| {
                a.get_or_null(by_attr).cmp(b.get_or_null(by_attr)).then(ka.cmp(kb))
            });
        }
        let projected: Vec<(DbKey, Record)> = if target.is_all() {
            records
        } else {
            let attrs: Vec<&str> = target
                .targets
                .iter()
                .map(|t| match t {
                    Target::Attr(a) => a.as_str(),
                    Target::Agg(..) => unreachable!("aggregates handled above"),
                })
                .collect();
            records
                .into_iter()
                .map(|(k, r)| {
                    let p = r.project(attrs.iter().copied());
                    (k, p)
                })
                .collect()
        };
        stats.records_returned = projected.len() as u64;
        stats.finish(1);
        Ok(Response::with_records(projected, stats))
    }

    // ----- RETRIEVE-COMMON ------------------------------------------

    fn exec_retrieve_common(
        &mut self,
        left: &Query,
        left_attr: &str,
        right: &Query,
        right_attr: &str,
        target: &TargetList,
    ) -> Result<Response> {
        let (left_matches, mut stats) = self.eval_query(left)?;
        let (right_matches, rstats) = self.eval_query(right)?;
        stats += rstats;

        // Hash join on the common attribute pair.
        let mut by_value: HashMap<Value, Vec<(DbKey, Record)>> = HashMap::new();
        for (file, key) in right_matches {
            let rec = self.files[&*file].records[&key].clone();
            let v = rec.get_or_null(right_attr).clone();
            if !v.is_null() {
                by_value.entry(v).or_default().push((key, rec));
            }
        }
        let mut out = Vec::new();
        for (file, key) in left_matches {
            let lrec = &self.files[&*file].records[&key];
            let v = lrec.get_or_null(left_attr);
            if let Some(partners) = by_value.get(v) {
                for (rkey, rrec) in partners {
                    // Merge: left keywords then right keywords that do
                    // not collide.
                    let mut merged = lrec.clone();
                    for kw in rrec.keywords() {
                        if merged.get(&kw.attr).is_none() {
                            merged.set(kw.attr.clone(), kw.value.clone());
                        }
                    }
                    let projected = if target.is_all() {
                        merged
                    } else {
                        let attrs: Vec<&str> = target
                            .targets
                            .iter()
                            .filter_map(|t| match t {
                                Target::Attr(a) => Some(a.as_str()),
                                Target::Agg(..) => None,
                            })
                            .collect();
                        merged.project(attrs)
                    };
                    out.push((key.min(*rkey), projected));
                }
            }
        }
        out.sort_by_key(|(k, _)| *k);
        stats.records_returned = out.len() as u64;
        stats.finish(2);
        Ok(Response::with_records(out, stats))
    }

    // ----- query evaluation -----------------------------------------

    /// Evaluate a query to a set of (file, key) matches.
    fn eval_query(&self, query: &Query) -> Result<(Matches, ExecStats)> {
        let mut stats = ExecStats::default();
        let mut seen: BTreeSet<(Arc<str>, DbKey)> = BTreeSet::new();
        for conj in &query.disjuncts {
            // A FILE predicate routes to one file; without one, every
            // file is scanned.
            let (routed, all) = match conj.file() {
                Some(file) => (self.files.get(file), None),
                None => (None, Some(self.files.values())),
            };
            for data in routed.into_iter().chain(all.into_iter().flatten()) {
                let (keys, s) = self.eval_conjunction_in_file(data, conj);
                stats += s;
                seen.extend(keys.into_iter().map(|k| (Arc::clone(&data.name), k)));
            }
        }
        stats.records_matched = seen.len() as u64;
        Ok((seen.into_iter().collect(), stats))
    }

    fn eval_query_in_file(&self, data: &FileData, query: &Query) -> (Vec<DbKey>, ExecStats) {
        let mut stats = ExecStats::default();
        let mut seen = BTreeSet::new();
        for conj in &query.disjuncts {
            let (keys, s) = self.eval_conjunction_in_file(data, conj);
            stats += s;
            seen.extend(keys);
        }
        (seen.into_iter().collect(), stats)
    }

    /// Evaluate one conjunction inside one file, using the directory
    /// index of the most selective usable predicate when enabled.
    fn eval_conjunction_in_file(
        &self,
        data: &FileData,
        conj: &Conjunction,
    ) -> (Vec<DbKey>, ExecStats) {
        let mut stats = ExecStats::default();
        // Predicates other than the FILE-routing one.
        let rest: Vec<&Predicate> =
            conj.predicates.iter().filter(|p| p.attr != FILE_ATTR).collect();

        let candidates: Vec<DbKey> = if self.indexing {
            match best_index_probe(data, &rest) {
                Some((probe_idx, keys)) => {
                    stats.index_probes += 1;
                    // Verify remaining predicates on each candidate.
                    let others: Vec<&Predicate> = rest
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != probe_idx)
                        .map(|(_, p)| *p)
                        .collect();
                    keys.into_iter()
                        .filter(|k| {
                            let rec = &data.records[k];
                            stats.examined(1);
                            others.iter().all(|p| p.matches(rec))
                        })
                        .collect()
                }
                None => self.scan_file(data, &rest, &mut stats),
            }
        } else {
            self.scan_file(data, &rest, &mut stats)
        };
        // Re-verify the FILE predicates (a conjunction could say
        // FILE != x; routing only used FILE = x).
        let file_preds: Vec<&Predicate> =
            conj.predicates.iter().filter(|p| p.attr == FILE_ATTR).collect();
        let out = if file_preds.is_empty() {
            candidates
        } else {
            let fval = Value::str(&*data.name);
            if file_preds.iter().all(|p| p.op.eval(&fval, &p.value)) {
                candidates
            } else {
                Vec::new()
            }
        };
        (out, stats)
    }

    fn scan_file(
        &self,
        data: &FileData,
        predicates: &[&Predicate],
        stats: &mut ExecStats,
    ) -> Vec<DbKey> {
        data.records
            .iter()
            .filter(|(_, rec)| {
                stats.examined(1);
                predicates.iter().all(|p| p.matches(rec))
            })
            .map(|(k, _)| *k)
            .collect()
    }
}

/// Choose the most selective index-usable predicate of a conjunction:
/// equality probes first (smallest posting list wins), then range
/// probes. Returns the predicate's position in `rest` and candidate keys.
fn best_index_probe(data: &FileData, rest: &[&Predicate]) -> Option<(usize, Vec<DbKey>)> {
    let mut best: Option<(usize, Vec<DbKey>)> = None;
    for (i, p) in rest.iter().enumerate() {
        let Some(by_value) = data.indexes.get(p.attr.as_str()) else { continue };
        let keys: Vec<DbKey> = match p.op {
            RelOp::Eq => by_value.get(&p.value).map(|s| s.iter().collect()).unwrap_or_default(),
            RelOp::Lt => range_keys(by_value, Bound::Unbounded, Bound::Excluded(&p.value)),
            RelOp::Le => range_keys(by_value, Bound::Unbounded, Bound::Included(&p.value)),
            RelOp::Gt => range_keys(by_value, Bound::Excluded(&p.value), Bound::Unbounded),
            RelOp::Ge => range_keys(by_value, Bound::Included(&p.value), Bound::Unbounded),
            RelOp::Ne => continue, // not index-friendly
        };
        // NULL-comparison predicates have subtle missing-attribute
        // semantics (a record without the keyword matches `= NULL` but
        // is absent from the index); fall back to scanning for them.
        if p.value.is_null() {
            continue;
        }
        match &best {
            Some((_, cur)) if cur.len() <= keys.len() => {}
            _ => best = Some((i, keys)),
        }
    }
    best
}

fn range_keys(
    by_value: &BTreeMap<Value, Postings>,
    lo: Bound<&Value>,
    hi: Bound<&Value>,
) -> Vec<DbKey> {
    by_value
        .range::<Value, _>((lo, hi))
        .filter(|(v, _)| !v.is_null())
        .flat_map(|(_, s)| s.iter())
        .collect()
}

/// Compute aggregate rows for a RETRIEVE with aggregates.
///
/// Public so the multi-backend controller can re-aggregate globally
/// after merging per-backend partial retrievals (per-backend aggregates
/// cannot be merged for AVG).
pub fn aggregate(
    records: &[(DbKey, Record)],
    target: &TargetList,
    by: Option<&str>,
) -> Result<Vec<GroupRow>> {
    // Group records.
    let mut groups: BTreeMap<Option<Value>, Vec<&Record>> = BTreeMap::new();
    match by {
        Some(attr) => {
            for (_, r) in records {
                groups.entry(Some(r.get_or_null(attr).clone())).or_default().push(r);
            }
        }
        None => {
            groups.insert(None, records.iter().map(|(_, r)| r).collect());
        }
    }
    let mut rows = Vec::with_capacity(groups.len());
    for (group, members) in groups {
        let mut values = Vec::with_capacity(target.targets.len());
        for t in &target.targets {
            match t {
                Target::Attr(a) => {
                    // A plain attribute inside an aggregate target list
                    // reports the group's first value (useful alongside
                    // the by-clause).
                    values.push(
                        members.first().map(|r| r.get_or_null(a).clone()).unwrap_or(Value::Null),
                    );
                }
                Target::Agg(op, attr) => values.push(eval_aggregate(*op, attr, &members)?),
            }
        }
        rows.push(GroupRow { group, values });
    }
    Ok(rows)
}

fn eval_aggregate(op: Aggregate, attr: &str, members: &[&Record]) -> Result<Value> {
    let present: Vec<&Value> =
        members.iter().map(|r| r.get_or_null(attr)).filter(|v| !v.is_null()).collect();
    if op == Aggregate::Count {
        return Ok(Value::Int(present.len() as i64));
    }
    if present.is_empty() {
        return Ok(Value::Null);
    }
    match op {
        Aggregate::Min => Ok((*present.iter().min().expect("non-empty")).clone()),
        Aggregate::Max => Ok((*present.iter().max().expect("non-empty")).clone()),
        Aggregate::Sum | Aggregate::Avg => {
            let mut sum = 0.0f64;
            let mut all_int = true;
            for v in &present {
                match v {
                    Value::Int(i) => sum += *i as f64,
                    Value::Float(f) => {
                        all_int = false;
                        sum += *f;
                    }
                    _ => {
                        return Err(Error::NonNumericAggregate { attr: attr.to_owned() });
                    }
                }
            }
            if op == Aggregate::Sum {
                if all_int {
                    Ok(Value::Int(sum as i64))
                } else {
                    Ok(Value::Float(sum))
                }
            } else {
                Ok(Value::Float(sum / present.len() as f64))
            }
        }
        Aggregate::Count => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_request;

    fn store_with_courses() -> Store {
        let mut s = Store::new();
        for (i, (title, dept, credits)) in [
            ("Advanced Database", "CS", 4i64),
            ("Operating Systems", "CS", 4),
            ("Linear Algebra", "Math", 3),
            ("Databases I", "CS", 3),
        ]
        .iter()
        .enumerate()
        {
            s.execute(&Request::Insert {
                record: Record::from_pairs([
                    ("FILE", Value::str("course")),
                    ("course", Value::Int(i as i64 + 1)),
                    ("title", Value::str(*title)),
                    ("dept", Value::str(*dept)),
                    ("credits", Value::Int(*credits)),
                ]),
            })
            .unwrap();
        }
        s
    }

    fn run(s: &mut Store, text: &str) -> Response {
        s.execute(&parse_request(text).unwrap()).unwrap()
    }

    #[test]
    fn insert_then_retrieve_by_equality() {
        let mut s = store_with_courses();
        let r = run(&mut s, "RETRIEVE ((FILE = course) and (title = 'Advanced Database')) (*)");
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.records()[0].1.get("credits"), Some(&Value::Int(4)));
    }

    #[test]
    fn retrieve_range_predicates() {
        let mut s = store_with_courses();
        let r = run(&mut s, "RETRIEVE ((FILE = course) and (credits >= 4)) (title)");
        assert_eq!(r.records().len(), 2);
        let r = run(&mut s, "RETRIEVE ((FILE = course) and (credits < 4)) (title)");
        assert_eq!(r.records().len(), 2);
    }

    #[test]
    fn retrieve_disjunction_unions_matches() {
        let mut s = store_with_courses();
        let r = run(
            &mut s,
            "RETRIEVE (((FILE = course) and (dept = 'Math')) or ((FILE = course) and (credits = 4))) (*)",
        );
        assert_eq!(r.records().len(), 3);
    }

    #[test]
    fn update_modifies_matching_records() {
        let mut s = store_with_courses();
        let r = run(&mut s, "UPDATE ((FILE = course) and (dept = 'CS')) (credits = 5)");
        assert_eq!(r.affected, 3);
        let r = run(&mut s, "RETRIEVE ((FILE = course) and (credits = 5)) (*)");
        assert_eq!(r.records().len(), 3);
        // Index must have been maintained.
        let r = run(&mut s, "RETRIEVE ((FILE = course) and (credits = 4)) (*)");
        assert_eq!(r.records().len(), 0);
    }

    #[test]
    fn delete_removes_and_cleans_index() {
        let mut s = store_with_courses();
        let r = run(&mut s, "DELETE ((FILE = course) and (dept = 'CS'))");
        assert_eq!(r.affected, 3);
        assert_eq!(s.file_len("course"), 1);
        let r = run(&mut s, "RETRIEVE ((FILE = course) and (dept = 'CS')) (*)");
        assert!(r.records().is_empty());
    }

    #[test]
    fn duplicates_not_allowed_rejects_insert() {
        let mut s = store_with_courses();
        s.add_unique_constraint("course", vec!["title".into(), "dept".into()]);
        let err = s
            .execute(&parse_request(
                "INSERT (<FILE, course>, <course, 9>, <title, 'Advanced Database'>, <dept, 'CS'>)",
            ).unwrap())
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. }));
        // Different dept is fine (group is composite).
        s.execute(&parse_request(
            "INSERT (<FILE, course>, <course, 9>, <title, 'Advanced Database'>, <dept, 'EE'>)",
        ).unwrap())
        .unwrap();
    }

    #[test]
    fn insert_without_file_keyword_fails() {
        let mut s = Store::new();
        let err = s.execute(&parse_request("INSERT (<a, 1>)").unwrap()).unwrap_err();
        assert_eq!(err, Error::MissingFileKeyword);
    }

    #[test]
    fn null_equality_matches_missing_attribute() {
        let mut s = Store::new();
        run(&mut s, "INSERT (<FILE, f>, <f, 1>, <x, 10>)");
        run(&mut s, "INSERT (<FILE, f>, <f, 2>)");
        let r = run(&mut s, "RETRIEVE ((FILE = f) and (x = NULL)) (*)");
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.records()[0].1.get("f"), Some(&Value::Int(2)));
        let r = run(&mut s, "RETRIEVE ((FILE = f) and (x != NULL)) (*)");
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.records()[0].1.get("f"), Some(&Value::Int(1)));
    }

    #[test]
    fn aggregates_with_by_clause() {
        let mut s = store_with_courses();
        let r = run(&mut s, "RETRIEVE (FILE = course) (COUNT(title), AVG(credits)) BY dept");
        let groups = r.groups.unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].group, Some(Value::str("CS")));
        assert_eq!(groups[0].values[0], Value::Int(3));
        let avg = groups[0].values[1].as_f64().unwrap();
        assert!((avg - 11.0 / 3.0).abs() < 1e-9);
        assert_eq!(groups[1].group, Some(Value::str("Math")));
    }

    #[test]
    fn aggregate_on_strings_is_error_for_sum() {
        let mut s = store_with_courses();
        let err =
            s.execute(&parse_request("RETRIEVE (FILE = course) (SUM(title))").unwrap()).unwrap_err();
        assert!(matches!(err, Error::NonNumericAggregate { .. }));
    }

    #[test]
    fn min_max_work_on_strings() {
        let mut s = store_with_courses();
        let r = run(&mut s, "RETRIEVE (FILE = course) (MIN(title), MAX(title))");
        let g = r.groups.unwrap();
        assert_eq!(g[0].values[0], Value::str("Advanced Database"));
        assert_eq!(g[0].values[1], Value::str("Operating Systems"));
    }

    #[test]
    fn by_clause_orders_plain_retrieval() {
        let mut s = store_with_courses();
        let r = run(&mut s, "RETRIEVE (FILE = course) (title) BY title");
        let titles: Vec<&str> = r
            .records()
            .iter()
            .map(|(_, rec)| rec.get("title").unwrap().as_str().unwrap())
            .collect();
        let mut sorted = titles.clone();
        sorted.sort();
        assert_eq!(titles, sorted);
    }

    #[test]
    fn retrieve_common_joins_on_attribute_pair() {
        let mut s = Store::new();
        run(&mut s, "INSERT (<FILE, faculty>, <faculty, 1>, <name, 'Hsiao'>, <dept, 'CS'>)");
        run(&mut s, "INSERT (<FILE, department>, <department, 1>, <dname, 'CS'>, <building, 'Sp'>)");
        run(&mut s, "INSERT (<FILE, department>, <department, 2>, <dname, 'EE'>, <building, 'Bu'>)");
        let r = run(
            &mut s,
            "RETRIEVE-COMMON ((FILE = faculty)) (dept) COMMON ((FILE = department)) (dname) (name, building)",
        );
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.records()[0].1.get("building"), Some(&Value::str("Sp")));
    }

    #[test]
    fn scan_mode_matches_indexed_mode() {
        let mk = |indexing| {
            let mut s = Store::with_indexing(indexing);
            for i in 0..100i64 {
                s.execute(&Request::Insert {
                    record: Record::from_pairs([
                        ("FILE", Value::str("f")),
                        ("f", Value::Int(i)),
                        ("bucket", Value::Int(i % 7)),
                    ]),
                })
                .unwrap();
            }
            s
        };
        let mut indexed = mk(true);
        let mut scanned = mk(false);
        for text in [
            "RETRIEVE ((FILE = f) and (bucket = 3)) (*)",
            "RETRIEVE ((FILE = f) and (bucket >= 5)) (*)",
            "RETRIEVE ((FILE = f) and (bucket != 2)) (f)",
        ] {
            let a = run(&mut indexed, text);
            let b = run(&mut scanned, text);
            assert_eq!(a.records(), b.records(), "divergence for {text}");
            assert!(a.stats.records_examined <= b.stats.records_examined);
        }
    }

    #[test]
    fn query_without_file_scans_all_files() {
        let mut s = Store::new();
        run(&mut s, "INSERT (<FILE, a>, <a, 1>, <x, 7>)");
        run(&mut s, "INSERT (<FILE, b>, <b, 1>, <x, 7>)");
        let r = run(&mut s, "RETRIEVE (x = 7) (*)");
        assert_eq!(r.records().len(), 2);
    }

    /// Every stored name points at the store's one copy: attribute
    /// names at the intern table's, `FILE` values at their file's. Holds
    /// for each insert path and UPDATE, with and without indexing.
    #[test]
    fn stored_names_share_one_allocation() {
        for indexing in [true, false] {
            let mut s = Store::with_indexing(indexing);
            run(&mut s, "INSERT (<FILE, f>, <f, 1>, <title, 'a'>)");
            s.insert_with_key(
                DbKey(100),
                Record::from_pairs([("FILE", Value::str("f")), ("f", Value::Int(2))])
                    .with("title", "b"),
            )
            .unwrap();
            run(&mut s, "INSERT (<FILE, g>, <g, 3>)");
            run(&mut s, "UPDATE (FILE = f) (grade = 'A')");
            run(&mut s, "UPDATE (FILE = g) (grade = 'B')");

            let recs: Vec<&Record> = s.iter_records().map(|(_, r)| r).collect();
            assert_eq!(recs.len(), 3);
            let attr = |r: &Record, name: &str| {
                Arc::clone(&r.keywords().iter().find(|kw| &*kw.attr == name).unwrap().attr)
            };
            for name in ["FILE", "grade"] {
                let first = attr(recs[0], name);
                assert!(recs.iter().all(|r| Arc::ptr_eq(&attr(r, name), &first)), "{name}");
            }
            assert!(Arc::ptr_eq(&attr(recs[0], "title"), &attr(recs[1], "title")));
            for (key, r) in s.iter_records() {
                let Some(Value::Str(file)) = r.get(FILE_ATTR) else { panic!("no FILE") };
                assert!(Arc::ptr_eq(file, &s.files[&**file].name), "FILE of {key}");
            }
        }
    }

    #[test]
    fn retrieve_unknown_file_is_empty_not_error() {
        let mut s = Store::new();
        let r = run(&mut s, "RETRIEVE (FILE = ghost) (*)");
        assert!(r.records().is_empty());
    }
}
