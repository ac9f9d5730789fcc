//! The network→ABDM mapping: the `AB(network)` kernel layout.
//!
//! "The key point in the mapping process is the retention of the network
//! records and sets; the mapping algorithm does, in fact, retain those
//! notions through the use of attribute-based constructs."
//!
//! Layout (after Banerjee/Wortherly, normalized as described in
//! `DESIGN.md`):
//!
//! * one kernel file per record type `R`;
//! * every occurrence carries `<FILE, R>` and `<R, key>` where `key` is
//!   the occurrence's entity key (a unique integer per record type);
//! * one keyword per data item;
//! * for every set `S` in which `R` participates **as a member**, a
//!   keyword `<S, owner-key>` — the entity key of the owner of the set
//!   occurrence the record is connected to, or `NULL` when disconnected.
//!   SYSTEM-owned sets use the distinguished owner key
//!   [`SYSTEM_OWNER_KEY`], so "connected to the (single) SYSTEM
//!   occurrence" is expressible uniformly.
//!
//! Uniqueness groups of a record type become `DUPLICATES ARE NOT
//! ALLOWED` constraints of the kernel file.

use crate::error::{Error, Result};
use crate::schema::{NetAttrType, NetworkSchema, Owner, RecordType};
use abdl::{value::truncate_str, Kernel, Record, Value, FILE_ATTR};

/// The entity key representing the SYSTEM owner of singular sets.
pub const SYSTEM_OWNER_KEY: i64 = 0;

/// The attribute holding a record occurrence's own entity key is named
/// after its record type (`<course, 17>`).
pub fn key_attr(record_type: &str) -> &str {
    record_type
}

/// Create the kernel files and uniqueness constraints for a network
/// schema (native or transformed).
pub fn install<K: Kernel>(schema: &NetworkSchema, store: &mut K) {
    for r in &schema.records {
        store.create_file(&r.name);
        for group in &r.unique_groups {
            store.add_unique_constraint(&r.name, group.clone());
        }
    }
}

/// Coerce a value into the declared type of a data item.
///
/// Integers widen to floats, numbers stringify into CHARACTER items
/// (the thesis's C implementation stores everything as strings, so this
/// is lenient by design), and CHARACTER values are truncated to the
/// declared maximum length. NULL is always accepted.
pub fn coerce(record: &RecordType, item: &str, value: Value) -> Result<Value> {
    let attr = record.require_attr(item)?;
    if value.is_null() {
        return Ok(Value::Null);
    }
    let mismatch = |value: &Value| Error::TypeMismatch {
        record: record.name.clone(),
        item: item.to_owned(),
        expected: attr.typ.to_string(),
        got: value.to_string(),
    };
    let coerced = coerce_type(record, attr, item, value, &mismatch)?;
    // Integrity checks carried from the functional schema (§V.C).
    if let Some(check) = &attr.check {
        if !check.allows(&coerced) {
            return Err(Error::TypeMismatch {
                record: record.name.clone(),
                item: item.to_owned(),
                expected: format!("{} {check}", attr.typ),
                got: coerced.to_string(),
            });
        }
    }
    Ok(coerced)
}

fn coerce_type(
    record: &RecordType,
    attr: &crate::schema::AttrType,
    item: &str,
    value: Value,
    mismatch: &dyn Fn(&Value) -> Error,
) -> Result<Value> {
    let _ = (record, item);
    match (&attr.typ, value) {
        (NetAttrType::Int, Value::Int(i)) => Ok(Value::Int(i)),
        (NetAttrType::Int, Value::Float(f)) if f.fract() == 0.0 => Ok(Value::Int(f as i64)),
        (NetAttrType::Int, Value::Str(s)) => {
            s.trim().parse::<i64>().map(Value::Int).map_err(|_| mismatch(&Value::Str(s.clone())))
        }
        (NetAttrType::Int, v) => Err(mismatch(&v)),
        (NetAttrType::Float { .. }, Value::Int(i)) => Ok(Value::Float(i as f64)),
        (NetAttrType::Float { .. }, Value::Float(f)) => Ok(Value::Float(f)),
        (NetAttrType::Float { .. }, Value::Str(s)) => s
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| mismatch(&Value::Str(s.clone()))),
        (NetAttrType::Float { .. }, v) => Err(mismatch(&v)),
        (NetAttrType::Char { len }, v) => {
            let s = match v {
                Value::Str(s) => s,
                other => other.to_string().into(),
            };
            Ok(Value::Str(truncate_str(s, *len as usize)))
        }
    }
}

/// Build the kernel record for a new occurrence of `record_type`.
///
/// `items` are (item, value) pairs (values are coerced); `set_links`
/// are (set-name, owner-key-or-NULL) pairs for every set the record
/// type is a member of.
pub fn build_record(
    schema: &NetworkSchema,
    record_type: &str,
    key: i64,
    items: &[(String, Value)],
    set_links: &[(String, Value)],
) -> Result<Record> {
    let rt = schema.require_record(record_type)?;
    let mut rec = Record::new();
    rec.set(FILE_ATTR, Value::str(record_type));
    rec.set(key_attr(record_type).to_owned(), Value::Int(key));
    for (item, value) in items {
        rec.set(item.clone(), coerce(rt, item, value.clone())?);
    }
    for (set, owner) in set_links {
        schema.require_set(set)?;
        rec.set(set.clone(), owner.clone());
    }
    Ok(rec)
}

/// Extract the (item, value) view of a kernel record according to the
/// record type's declared data items (drops FILE / key / set keywords).
pub fn data_items(rt: &RecordType, rec: &Record) -> Vec<(String, Value)> {
    rt.attrs.iter().map(|a| (a.name.clone(), rec.get_or_null(&a.name).clone())).collect()
}

/// The set-membership keywords of a record: which sets the occurrence
/// is connected to and their owner keys.
pub fn set_links(schema: &NetworkSchema, record_type: &str, rec: &Record) -> Vec<(String, Value)> {
    schema
        .sets_with_member(record_type)
        .map(|s| (s.name.clone(), rec.get_or_null(&s.name).clone()))
        .collect()
}

/// For every set a record type is a member of, the initial link value
/// for a freshly stored occurrence: AUTOMATIC sets connect immediately
/// (SYSTEM sets to the SYSTEM occurrence, record-owned sets to the
/// current occurrence per the CIT), MANUAL sets start NULL.
///
/// `current_owner` resolves the current occurrence owner key for a
/// record-owned set (from the CIT); returning `None` leaves the link
/// NULL (no current occurrence).
pub fn initial_links<F>(
    schema: &NetworkSchema,
    record_type: &str,
    mut current_owner: F,
) -> Vec<(String, Value)>
where
    F: FnMut(&str) -> Option<i64>,
{
    schema
        .sets_with_member(record_type)
        .map(|s| {
            let v = match (&s.insertion, &s.owner) {
                (crate::schema::Insertion::Automatic, Owner::System) => {
                    Value::Int(SYSTEM_OWNER_KEY)
                }
                (crate::schema::Insertion::Automatic, Owner::Record(_)) => {
                    current_owner(&s.name).map(Value::Int).unwrap_or(Value::Null)
                }
                (crate::schema::Insertion::Manual, _) => Value::Null,
            };
            (s.name.clone(), v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Insertion, Retention, SetType};
    use abdl::Store;

    fn schema() -> NetworkSchema {
        let mut s = NetworkSchema::new("t");
        let mut course = RecordType::new("course");
        course.attrs.push(AttrType::new("title", NetAttrType::Char { len: 10 }));
        course.attrs.push(AttrType::new("credits", NetAttrType::Int));
        course.attrs.push(AttrType::new("gpa", NetAttrType::Float { dec: 2 }));
        course.unique_groups.push(vec!["title".into()]);
        s.records.push(course);
        s.sets.push(SetType::new(
            "system_course",
            Owner::System,
            "course",
            Insertion::Automatic,
            Retention::Fixed,
        ));
        let mut dept = RecordType::new("department");
        dept.attrs.push(AttrType::new("dname", NetAttrType::Char { len: 10 }));
        s.records.push(dept);
        s.sets.push(SetType::new(
            "offered_by",
            Owner::Record("department".into()),
            "course",
            Insertion::Manual,
            Retention::Optional,
        ));
        s
    }

    #[test]
    fn install_creates_files_and_constraints() {
        let s = schema();
        let mut store = Store::new();
        install(&s, &mut store);
        assert_eq!(store.file_names().count(), 2);
        // Unique title is enforced.
        let rec =
            build_record(&s, "course", 1, &[("title".into(), Value::str("DB"))], &[]).unwrap();
        store.execute(&abdl::Request::Insert { record: rec }).unwrap();
        let rec2 =
            build_record(&s, "course", 2, &[("title".into(), Value::str("DB"))], &[]).unwrap();
        assert!(store.execute(&abdl::Request::Insert { record: rec2 }).is_err());
    }

    #[test]
    fn coercion_rules() {
        let s = schema();
        let rt = s.record("course").unwrap();
        assert_eq!(coerce(rt, "credits", Value::str("4")).unwrap(), Value::Int(4));
        assert_eq!(coerce(rt, "credits", Value::Float(4.0)).unwrap(), Value::Int(4));
        assert!(coerce(rt, "credits", Value::Float(4.5)).is_err());
        assert!(coerce(rt, "credits", Value::str("four")).is_err());
        assert_eq!(coerce(rt, "gpa", Value::Int(3)).unwrap(), Value::Float(3.0));
        // CHARACTER truncates to declared length.
        assert_eq!(
            coerce(rt, "title", Value::str("Advanced Database")).unwrap(),
            Value::str("Advanced D")
        );
        // NULL always accepted; unknown item rejected.
        assert_eq!(coerce(rt, "title", Value::Null).unwrap(), Value::Null);
        assert!(coerce(rt, "ghost", Value::Int(1)).is_err());
    }

    #[test]
    fn build_record_layout() {
        let s = schema();
        let rec = build_record(
            &s,
            "course",
            17,
            &[("title".into(), Value::str("DB")), ("credits".into(), Value::Int(4))],
            &[("system_course".into(), Value::Int(SYSTEM_OWNER_KEY)),
              ("offered_by".into(), Value::Null)],
        )
        .unwrap();
        assert_eq!(rec.file(), Some("course"));
        assert_eq!(rec.get("course"), Some(&Value::Int(17)));
        assert_eq!(rec.get("system_course"), Some(&Value::Int(0)));
        assert!(rec.get("offered_by").unwrap().is_null());
    }

    #[test]
    fn initial_links_follow_insertion_modes() {
        let s = schema();
        let links = initial_links(&s, "course", |_| Some(99));
        let get = |n: &str| links.iter().find(|(k, _)| k == n).unwrap().1.clone();
        assert_eq!(get("system_course"), Value::Int(SYSTEM_OWNER_KEY));
        // offered_by is MANUAL: stays NULL even with a current occurrence.
        assert!(get("offered_by").is_null());
    }

    #[test]
    fn data_items_and_set_links_views() {
        let s = schema();
        let rec = build_record(
            &s,
            "course",
            1,
            &[("title".into(), Value::str("DB"))],
            &[("offered_by".into(), Value::Int(5))],
        )
        .unwrap();
        let rt = s.record("course").unwrap();
        let items = data_items(rt, &rec);
        assert_eq!(items.len(), 3); // title, credits (NULL), gpa (NULL)
        assert_eq!(items[0], ("title".to_owned(), Value::str("DB")));
        let links = set_links(&s, "course", &rec);
        assert!(links.iter().any(|(k, v)| k == "offered_by" && *v == Value::Int(5)));
    }
}
