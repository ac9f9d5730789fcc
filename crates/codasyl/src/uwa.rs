//! The User Work Area (UWA).
//!
//! "MOVE 'Advanced Database' TO title IN course … serves to initialize
//! the UWA field title in course." The UWA holds one template per
//! record type: the staging area for STORE/MODIFY inputs and GET
//! outputs.

use abdl::{Record, Value};
use std::collections::BTreeMap;

/// Per-user record templates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Uwa {
    templates: BTreeMap<String, BTreeMap<String, Value>>,
}

impl Uwa {
    /// An empty UWA.
    pub fn new() -> Self {
        Uwa::default()
    }

    /// `MOVE value TO item IN record`.
    pub fn set(&mut self, record: &str, item: &str, value: Value) {
        self.templates.entry(record.to_owned()).or_default().insert(item.to_owned(), value);
    }

    /// The current value of `item` in `record`'s template (NULL when
    /// never moved).
    pub fn get(&self, record: &str, item: &str) -> Value {
        self.templates
            .get(record)
            .and_then(|t| t.get(item))
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// All items currently set in `record`'s template.
    pub fn items(&self, record: &str) -> Vec<(String, Value)> {
        self.templates
            .get(record)
            .map(|t| t.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default()
    }

    /// Load a retrieved kernel record into the template (GET results
    /// become visible to the host program through the UWA).
    pub fn load_record(&mut self, record: &str, rec: &Record) {
        let template = self.templates.entry(record.to_owned()).or_default();
        for kw in rec.keywords() {
            template.insert(kw.attr.to_string(), kw.value.clone());
        }
    }

    /// Load only the given items of a retrieved record.
    pub fn load_items<'a, I: IntoIterator<Item = &'a str>>(
        &mut self,
        record: &str,
        rec: &Record,
        items: I,
    ) {
        let template = self.templates.entry(record.to_owned()).or_default();
        for item in items {
            template.insert(item.to_owned(), rec.get_or_null(item).clone());
        }
    }

    /// Clear a record template (host programs re-initialize between
    /// STOREs).
    pub fn clear(&mut self, record: &str) {
        self.templates.remove(record);
    }

    /// Clear everything.
    pub fn clear_all(&mut self) {
        self.templates.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_then_get() {
        let mut uwa = Uwa::new();
        uwa.set("course", "title", Value::str("Advanced Database"));
        assert_eq!(uwa.get("course", "title"), Value::str("Advanced Database"));
        assert_eq!(uwa.get("course", "credits"), Value::Null);
        assert_eq!(uwa.get("student", "major"), Value::Null);
    }

    #[test]
    fn load_record_populates_template() {
        let mut uwa = Uwa::new();
        let rec = Record::from_pairs([("title", Value::str("DB")), ("credits", Value::Int(4))]);
        uwa.load_record("course", &rec);
        assert_eq!(uwa.get("course", "credits"), Value::Int(4));
        assert_eq!(uwa.items("course").len(), 2);
    }

    #[test]
    fn load_items_is_selective_and_nulls_missing() {
        let mut uwa = Uwa::new();
        let rec = Record::from_pairs([("title", Value::str("DB"))]);
        uwa.load_items("course", &rec, ["title", "credits"]);
        assert_eq!(uwa.get("course", "title"), Value::str("DB"));
        assert_eq!(uwa.get("course", "credits"), Value::Null);
    }

    #[test]
    fn clear_forgets_template() {
        let mut uwa = Uwa::new();
        uwa.set("course", "title", Value::str("x"));
        uwa.clear("course");
        assert!(uwa.items("course").is_empty());
    }
}
