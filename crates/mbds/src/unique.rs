//! The exact unique-value index behind `DUPLICATES ARE NOT ALLOWED`.
//!
//! Uniqueness is enforced *globally* by the controller: a per-backend
//! check would only see its own partition. Every insert flows through
//! the controller, so an index of each constraint group's value tuples
//! is authoritative. It replaces the pre-insert broadcast probe and
//! names the only keys a fully pinned equality read can match. One
//! [`UniqueIndex`] serves the threaded [`crate::Controller`], its
//! serial twin [`crate::SimCluster`] and, through that twin, a
//! standby's mirror; a promotion hands it over whole. Snapshot + WAL
//! replay rebuilds it incrementally.

use crate::sched::UniqueGroups;
use abdl::engine::postings::{post, unpost};
use abdl::{Conjunction, DbKey, Postings, Predicate, Query, Record, RelOp, Value, FILE_ATTR};
use std::collections::{BTreeMap, HashMap};

/// One constraint group's index: value tuple → the keys holding it.
type ByTuple = BTreeMap<Vec<Value>, Postings>;

/// The declared constraint groups and, per file and group, the value
/// tuple of every stored record.
#[derive(Debug, Clone, Default)]
pub(crate) struct UniqueIndex {
    /// Per file, the groups in declaration order (group index =
    /// position).
    groups: UniqueGroups,
    /// Per file, one tuple index per group, parallel to `groups`.
    tuples: HashMap<String, Vec<ByTuple>>,
}

/// The index tuple of `record` under a constraint group: one value per
/// attribute, NULL standing in for absent ones — exactly the values an
/// equality probe would compare against.
fn group_tuple(record: &Record, group: &[String]) -> Vec<Value> {
    group.iter().map(|a| record.get_or_null(a).clone()).collect()
}

impl UniqueIndex {
    /// The declared groups, per file (the scheduler's footprint input).
    pub(crate) fn groups(&self) -> &UniqueGroups {
        &self.groups
    }

    /// Declare a group on `file`. Idempotent: re-registering an
    /// existing group (WAL replay of a doubly-logged constraint, a
    /// repeated `.spawn` seed) must not add a second copy for every
    /// insert to check. Returns the new group's index, for the
    /// caller's backfill of already-stored records.
    pub(crate) fn register(&mut self, file: &str, attrs: Vec<String>) -> Option<usize> {
        let groups = self.groups.entry(file.to_owned()).or_default();
        if groups.contains(&attrs) {
            return None;
        }
        groups.push(attrs);
        self.tuples.entry(file.to_owned()).or_default().push(ByTuple::new());
        Some(groups.len() - 1)
    }

    /// Index an already-stored record under the newly registered group
    /// `gi` of `file` only.
    pub(crate) fn backfill(&mut self, file: &str, gi: usize, key: DbKey, record: &Record) {
        let tuple = group_tuple(record, &self.groups[file][gi]);
        post(&mut self.tuples.get_mut(file).expect("registered file")[gi], tuple, key);
    }

    /// Each group of the record's file, paired with its tuple index.
    fn file_groups_mut<'a>(
        &'a mut self,
        record: &Record,
    ) -> impl Iterator<Item = (&'a Vec<String>, &'a mut ByTuple)> {
        let file = record.file();
        let groups = file.and_then(|f| self.groups.get(f)).map(Vec::as_slice);
        let tuples = file.and_then(|f| self.tuples.get_mut(f)).map(Vec::as_mut_slice);
        groups.unwrap_or_default().iter().zip(tuples.unwrap_or_default())
    }

    /// Index every constraint-group tuple of a newly stored record.
    pub(crate) fn insert(&mut self, key: DbKey, record: &Record) {
        for (group, by_tuple) in self.file_groups_mut(record) {
            post(by_tuple, group_tuple(record, group), key);
        }
    }

    /// Drop a deleted record's tuples (tolerates missing entries, so
    /// replay and live deletion are both safe).
    pub(crate) fn remove(&mut self, key: DbKey, record: &Record) {
        for (group, by_tuple) in self.file_groups_mut(record) {
            unpost(by_tuple, &group_tuple(record, group), key);
        }
    }

    /// Move a record's tuples when an UPDATE sets `attr` to `value`.
    /// `record` is the pre-image; duplicates created this way (the
    /// kernel does not re-check uniqueness on UPDATE) simply list
    /// several keys under one tuple.
    pub(crate) fn update(&mut self, key: DbKey, record: &Record, attr: &str, value: &Value) {
        for (group, by_tuple) in self.file_groups_mut(record) {
            if !group.iter().any(|a| a == attr) {
                continue;
            }
            let old_t = group_tuple(record, group);
            let new_t: Vec<Value> = group
                .iter()
                .zip(&old_t)
                .map(|(a, v)| if a == attr { value.clone() } else { v.clone() })
                .collect();
            if old_t != new_t {
                unpost(by_tuple, &old_t, key);
                post(by_tuple, new_t, key);
            }
        }
    }

    /// The first group `record` carries in full whose tuple is already
    /// stored — the constraint an insert of `record` would violate.
    pub(crate) fn conflict(&self, record: &Record) -> Option<&[String]> {
        let file = record.file()?;
        let (groups, tuples) = (self.groups.get(file)?, self.tuples.get(file)?);
        groups
            .iter()
            .zip(tuples)
            .find(|(group, by_tuple)| {
                group.iter().all(|a| record.get(a).is_some())
                    && by_tuple.contains_key(&group_tuple(record, group))
            })
            .map(|(group, _)| group.as_slice())
    }

    /// The legacy pre-insert broadcast probes (the E15 ablation
    /// baseline): for every group `record` carries in full, the group
    /// and the equality retrieve that finds an existing duplicate.
    pub(crate) fn probes(&self, record: &Record) -> Vec<(Vec<String>, Query)> {
        let Some(file) = record.file() else { return Vec::new() };
        let groups = self.groups.get(file).map(Vec::as_slice).unwrap_or_default();
        groups
            .iter()
            .filter_map(|group| {
                let preds: Option<Vec<Predicate>> = group
                    .iter()
                    .map(|a| Some(Predicate::eq(a.clone(), record.get(a)?.clone())))
                    .collect();
                let file_pred = Predicate::eq(FILE_ATTR, Value::str(file));
                let query = Query::conjunction(std::iter::once(file_pred).chain(preds?).collect());
                Some((group.clone(), query))
            })
            .collect()
    }

    /// Key-scoped fast path: when a conjunction pins every attribute of
    /// some group with an equality predicate, the index names the only
    /// keys that can match (further predicates can only narrow the
    /// answer, never widen it). `None` when no group is pinned.
    pub(crate) fn candidates(&self, file: &str, conj: &Conjunction) -> Option<Vec<DbKey>> {
        let (groups, tuples) = (self.groups.get(file)?, self.tuples.get(file)?);
        groups.iter().zip(tuples).filter(|(group, _)| !group.is_empty()).find_map(
            |(group, by_tuple)| {
                let tuple: Vec<Value> = group
                    .iter()
                    .map(|a| {
                        conj.predicates
                            .iter()
                            .find(|p| p.attr == *a && p.op == RelOp::Eq)
                            .map(|p| p.value.clone())
                    })
                    .collect::<Option<_>>()?;
                Some(by_tuple.get(&tuple).map(|keys| keys.iter().collect()).unwrap_or_default())
            },
        )
    }

    /// A deterministic rendering, one sorted line per stored tuple: a
    /// rebuilt, promoted or simulated index must match the live one
    /// byte for byte.
    pub(crate) fn digest(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for (file, tuples) in &self.tuples {
            for (gi, by_tuple) in tuples.iter().enumerate() {
                for (tuple, keys) in by_tuple {
                    let vals: Vec<String> = tuple.iter().map(ToString::to_string).collect();
                    let ks: Vec<String> = keys.iter().map(|k| k.0.to_string()).collect();
                    lines.push(format!("{file}#{gi} [{}] {}", vals.join(","), ks.join(",")));
                }
            }
        }
        lines.sort();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(u: i64, v: i64) -> Record {
        Record::from_pairs([("FILE", Value::str("t"))]).with("u", Value::Int(u)).with("v", v)
    }

    #[test]
    fn index_tracks_insert_update_remove() {
        let mut ix = UniqueIndex::default();
        assert_eq!(ix.register("t", vec!["u".into()]), Some(0));
        assert_eq!(ix.register("t", vec!["u".into()]), None, "idempotent");
        ix.insert(DbKey(1), &rec(10, 0));
        ix.insert(DbKey(2), &rec(20, 0));
        assert_eq!(ix.conflict(&rec(10, 5)), Some(&["u".to_owned()][..]));
        assert_eq!(ix.conflict(&rec(30, 5)), None);

        // An UPDATE may create a duplicate: both keys list under one tuple.
        ix.update(DbKey(2), &rec(20, 0), "u", &Value::Int(10));
        assert_eq!(ix.digest(), "t#0 [10] 1,2");
        let pin = Conjunction::new(vec![Predicate::eq("u", 10)]);
        assert_eq!(ix.candidates("t", &pin), Some(vec![DbKey(1), DbKey(2)]));
        let loose = Conjunction::new(vec![Predicate::new("u", RelOp::Ge, 10)]);
        assert_eq!(ix.candidates("t", &loose), None);

        ix.remove(DbKey(1), &rec(10, 0));
        ix.remove(DbKey(2), &rec(10, 0));
        ix.remove(DbKey(2), &rec(10, 0));
        assert_eq!(ix.digest(), "");
        assert_eq!(ix.candidates("t", &pin), Some(vec![]));
    }
}
