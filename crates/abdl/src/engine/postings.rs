//! Posting lists: the set of database keys an index entry points at.

use crate::record::DbKey;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;

/// The keys one index entry (a directory value, a unique-group tuple)
/// points at. Most entries name a single record — every value of a
/// unique attribute does — so one key is held inline and a heap set is
/// only built once a second key arrives.
///
/// A posting list is never empty: [`Postings::remove`] reports when it
/// took the last key, and the caller then drops the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Postings {
    /// Exactly one key, held inline.
    One(DbKey),
    /// Two or more keys.
    Many(BTreeSet<DbKey>),
}

impl Postings {
    /// Add `key` (idempotent).
    pub fn insert(&mut self, key: DbKey) {
        match self {
            Postings::One(k) if *k == key => {}
            Postings::One(k) => *self = Postings::Many(BTreeSet::from([*k, key])),
            Postings::Many(keys) => {
                keys.insert(key);
            }
        }
    }

    /// Remove `key` (a no-op when absent). Returns `true` when `key`
    /// was the last one: the list is then spent and must be dropped.
    pub fn remove(&mut self, key: DbKey) -> bool {
        match self {
            Postings::One(k) => *k == key,
            Postings::Many(keys) => {
                keys.remove(&key);
                if keys.len() == 1 {
                    *self = Postings::One(*keys.first().expect("one key left"));
                }
                false
            }
        }
    }

    /// The keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = DbKey> + '_ {
        let (one, many) = match self {
            Postings::One(k) => (Some(*k), None),
            Postings::Many(keys) => (None, Some(keys.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// Add `key` under `entry` of a posting-list map, creating the entry.
pub fn post<K: Ord>(map: &mut BTreeMap<K, Postings>, entry: K, key: DbKey) {
    match map.entry(entry) {
        Entry::Vacant(v) => {
            v.insert(Postings::One(key));
        }
        Entry::Occupied(mut o) => o.get_mut().insert(key),
    }
}

/// Remove `key` from under `entry`, dropping the entry once it is spent
/// (tolerates a missing entry or key).
pub fn unpost<K: Ord>(map: &mut BTreeMap<K, Postings>, entry: &K, key: DbKey) {
    if map.get_mut(entry).is_some_and(|p| p.remove(key)) {
        map.remove(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(p: &Postings) -> Vec<u64> {
        p.iter().map(|k| k.0).collect()
    }

    #[test]
    fn insert_is_idempotent() {
        let mut p = Postings::One(DbKey(7));
        p.insert(DbKey(7));
        assert_eq!(p, Postings::One(DbKey(7)));
        p.insert(DbKey(3));
        p.insert(DbKey(3));
        assert_eq!(keys(&p), [3, 7]);
    }

    #[test]
    fn one_grows_to_many_and_shrinks_back_to_one() {
        let mut p = Postings::One(DbKey(5));
        p.insert(DbKey(9));
        assert!(matches!(p, Postings::Many(_)));
        p.insert(DbKey(1));
        assert!(!p.remove(DbKey(9)));
        assert!(matches!(p, Postings::Many(_)));
        assert!(!p.remove(DbKey(1)));
        assert_eq!(p, Postings::One(DbKey(5)));
    }

    #[test]
    fn removing_the_last_key_reports_spent() {
        let mut p = Postings::One(DbKey(4));
        assert!(!p.remove(DbKey(8)), "absent key leaves the list alone");
        assert_eq!(p, Postings::One(DbKey(4)));
        assert!(p.remove(DbKey(4)));

        let mut map = BTreeMap::new();
        post(&mut map, "v", DbKey(1));
        post(&mut map, "v", DbKey(2));
        unpost(&mut map, &"v", DbKey(1));
        assert_eq!(map.get("v"), Some(&Postings::One(DbKey(2))));
        unpost(&mut map, &"v", DbKey(2));
        assert!(map.is_empty());
        unpost(&mut map, &"v", DbKey(2));
    }

    #[test]
    fn keys_iterate_in_ascending_order() {
        let mut p = Postings::One(DbKey(50));
        for k in [40, 10, 30, 20, 60] {
            p.insert(DbKey(k));
        }
        assert_eq!(keys(&p), [10, 20, 30, 40, 50, 60]);
        assert_eq!(keys(&Postings::One(DbKey(50))), [50]);
    }
}
