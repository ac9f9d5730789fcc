//! ABDM records: keywords (attribute–value pairs) plus an optional
//! record body ("a textual portion, allowing for a verbal description of
//! the record or concept" — Figure 2.3 of the thesis).

use crate::value::Value;
use crate::FILE_ATTR;
use std::fmt;
use std::sync::Arc;

/// A kernel database key: the unique address of a record in the store.
///
/// CODASYL currency indicators hold either null or "the address of a
/// record in the database"; `DbKey` is that address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct DbKey(pub u64);

impl fmt::Display for DbKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An attribute–value pair — the ABDM *keyword*.
///
/// "These attribute-value pairs are formed from a cartesian product of
/// the attribute names and the domains of the values for the attributes.
/// This allows for the representation of any and all logical concepts."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keyword {
    /// The attribute name, shared: a [`Store`](crate::Store) points
    /// every record's copy of a name at one allocation.
    pub attr: Arc<str>,
    /// The attribute value.
    pub value: Value,
}

impl Keyword {
    /// Construct a keyword.
    pub fn new(attr: impl Into<Arc<str>>, value: impl Into<Value>) -> Self {
        Keyword { attr: attr.into(), value: value.into() }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.attr, self.value)
    }
}

/// An ABDM record: "comprised of at most one keyword for each attribute
/// defined in the database and a textual portion".
///
/// The keyword order is preserved (the `<FILE, f>` keyword is first by
/// convention); lookup by attribute is linear, which is fine because
/// kernel records are short (one keyword per schema attribute).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    keywords: Vec<Keyword>,
    /// The optional record body (free text).
    pub body: Option<String>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// Build a record from `(attr, value)` pairs.
    pub fn from_pairs<A, V, I>(pairs: I) -> Self
    where
        A: Into<Arc<str>>,
        V: Into<Value>,
        I: IntoIterator<Item = (A, V)>,
    {
        Record {
            keywords: pairs
                .into_iter()
                .map(|(a, v)| Keyword::new(a, v))
                .collect(),
            body: None,
        }
    }

    /// Append a keyword. If the attribute is already present the existing
    /// keyword is overwritten ("at most one keyword for each attribute").
    pub fn set(&mut self, attr: impl Into<Arc<str>>, value: impl Into<Value>) -> &mut Self {
        let attr = attr.into();
        let value = value.into();
        if let Some(kw) = self.keywords.iter_mut().find(|k| k.attr == attr) {
            kw.value = value;
        } else {
            self.keywords.push(Keyword { attr, value });
        }
        self
    }

    /// Builder-style [`Record::set`].
    pub fn with(mut self, attr: impl Into<Arc<str>>, value: impl Into<Value>) -> Self {
        self.set(attr, value);
        self
    }

    /// The value of `attr`, if the record carries a keyword for it.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.keywords.iter().find(|k| &*k.attr == attr).map(|k| &k.value)
    }

    /// Like [`Record::get`] but treating a missing keyword as NULL,
    /// matching kernel query semantics.
    pub fn get_or_null(&self, attr: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(attr).unwrap_or(&NULL)
    }

    /// Remove the keyword for `attr`; returns its value if present.
    pub fn remove(&mut self, attr: &str) -> Option<Value> {
        let idx = self.keywords.iter().position(|k| &*k.attr == attr)?;
        Some(self.keywords.remove(idx).value)
    }

    /// The file this record belongs to (`<FILE, f>` keyword).
    pub fn file(&self) -> Option<&str> {
        self.get(FILE_ATTR).and_then(Value::as_str)
    }

    /// All keywords in insertion order.
    pub fn keywords(&self) -> &[Keyword] {
        &self.keywords
    }

    /// Mutable keywords, for the store's interning of names in place.
    pub(crate) fn keywords_mut(&mut self) -> &mut [Keyword] {
        &mut self.keywords
    }

    /// Attribute names in keyword order.
    pub fn attrs(&self) -> impl Iterator<Item = &str> {
        self.keywords.iter().map(|k| &*k.attr)
    }

    /// Number of keywords.
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// True when the record has no keywords.
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// Project the record onto a set of attributes, keeping target order.
    /// The projection shares this record's names and string values.
    pub fn project<'a, I: IntoIterator<Item = &'a str>>(&self, attrs: I) -> Record {
        let mut out = Record::new();
        for attr in attrs {
            if let Some(kw) = self.keywords.iter().find(|k| &*k.attr == attr) {
                out.set(Arc::clone(&kw.attr), kw.value.clone());
            }
        }
        out
    }
}

impl fmt::Display for Record {
    /// Renders as an ABDL keyword list: `(<FILE, f>, <a, v>, ...)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, kw) in self.keywords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{kw}")?;
        }
        if let Some(body) = &self.body {
            if !self.keywords.is_empty() {
                write!(f, ", ")?;
            }
            write!(f, "{{{body}}}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_overwrites_existing_attribute() {
        let mut r = Record::new();
        r.set("a", 1i64).set("b", 2i64).set("a", 3i64);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("a"), Some(&Value::Int(3)));
    }

    #[test]
    fn file_keyword_is_recognized() {
        let r = Record::from_pairs([("FILE", "course"), ("title", "DB")]);
        assert_eq!(r.file(), Some("course"));
    }

    #[test]
    fn get_or_null_defaults_to_null() {
        let r = Record::new();
        assert!(r.get_or_null("missing").is_null());
    }

    #[test]
    fn projection_keeps_target_order() {
        let r = Record::from_pairs([("a", 1i64), ("b", 2i64), ("c", 3i64)]);
        let p = r.project(["c", "a"]);
        assert_eq!(p.attrs().collect::<Vec<_>>(), vec!["c", "a"]);
    }

    #[test]
    fn display_renders_keyword_list() {
        let mut r = Record::from_pairs([("FILE", "f")]);
        r.set("n", 4i64);
        r.body = Some("note".into());
        assert_eq!(r.to_string(), "(<FILE, 'f'>, <n, 4>, {note})");
    }
}
