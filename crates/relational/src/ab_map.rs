//! The relational→ABDM mapping.
//!
//! The simplest of the MLDS mappings: a table is a kernel file, a row
//! is a record (`<FILE, t>`, `<t, row-key>`, one keyword per column),
//! and a primary key is a `DUPLICATES ARE NOT ALLOWED` group.

use crate::error::{Error, Result};
use crate::schema::{ColType, RelSchema, Table};
use abdl::{value::truncate_str, Kernel, Record, Value, FILE_ATTR};

/// The attribute holding a row's kernel key is named after its table.
pub fn key_attr(table: &str) -> &str {
    table
}

/// Create the kernel files and primary-key constraints for a schema.
pub fn install<K: Kernel>(schema: &RelSchema, kernel: &mut K) {
    for t in &schema.tables {
        kernel.create_file(&t.name);
        if !t.primary_key.is_empty() {
            kernel.add_unique_constraint(&t.name, t.primary_key.clone());
        }
    }
}

/// Coerce a value into a column's declared type (NULL passes unless the
/// column is NOT NULL).
pub fn coerce(table: &Table, column: &str, value: Value) -> Result<Value> {
    let col = table.require_column(column)?;
    if value.is_null() {
        if col.not_null {
            return Err(Error::TypeMismatch {
                table: table.name.clone(),
                column: column.to_owned(),
                expected: format!("{} NOT NULL", col.typ),
                got: "NULL".into(),
            });
        }
        return Ok(Value::Null);
    }
    let mismatch = |v: &Value| Error::TypeMismatch {
        table: table.name.clone(),
        column: column.to_owned(),
        expected: col.typ.to_string(),
        got: v.to_string(),
    };
    match (&col.typ, value) {
        (ColType::Int, Value::Int(i)) => Ok(Value::Int(i)),
        (ColType::Int, Value::Float(f)) if f.fract() == 0.0 => Ok(Value::Int(f as i64)),
        (ColType::Int, v) => Err(mismatch(&v)),
        (ColType::Float, Value::Float(f)) => Ok(Value::Float(f)),
        (ColType::Float, Value::Int(i)) => Ok(Value::Float(i as f64)),
        (ColType::Float, v) => Err(mismatch(&v)),
        (ColType::Char { len }, Value::Str(s)) => Ok(Value::Str(truncate_str(s, *len as usize))),
        (ColType::Char { .. }, v) => Err(mismatch(&v)),
    }
}

/// Build the kernel record for a new row.
pub fn build_row(table: &Table, key: i64, values: &[(String, Value)]) -> Result<Record> {
    let mut rec = Record::new();
    rec.set(FILE_ATTR, Value::str(table.name.clone()));
    rec.set(key_attr(&table.name).to_owned(), Value::Int(key));
    for (col, v) in values {
        let v = coerce(table, col, v.clone())?;
        let attr = table.require_column(col)?.kernel_attr().to_owned();
        if !v.is_null() {
            rec.set(attr, v);
        }
    }
    // NOT NULL columns must have been supplied.
    for col in &table.columns {
        if col.not_null && rec.get(col.kernel_attr()).is_none() {
            return Err(Error::TypeMismatch {
                table: table.name.clone(),
                column: col.name.clone(),
                expected: format!("{} NOT NULL", col.typ),
                got: "NULL".into(),
            });
        }
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::parse_schema;
    use abdl::Store;

    fn schema() -> RelSchema {
        parse_schema(
            "CREATE DATABASE d;
             CREATE TABLE t (a INTEGER NOT NULL, b CHAR(5), c FLOAT, PRIMARY KEY (a));",
        )
        .unwrap()
    }

    #[test]
    fn install_creates_files_and_pk() {
        let s = schema();
        let mut store = Store::new();
        install(&s, &mut store);
        let t = s.table("t").unwrap();
        let row = build_row(t, 1, &[("a".into(), Value::Int(7))]).unwrap();
        store.execute(&abdl::Request::Insert { record: row }).unwrap();
        let dup = build_row(t, 2, &[("a".into(), Value::Int(7))]).unwrap();
        assert!(store.execute(&abdl::Request::Insert { record: dup }).is_err());
    }

    #[test]
    fn coercion_and_not_null() {
        let s = schema();
        let t = s.table("t").unwrap();
        assert_eq!(coerce(t, "c", Value::Int(3)).unwrap(), Value::Float(3.0));
        assert_eq!(coerce(t, "b", Value::str("toolong!")).unwrap(), Value::str("toolo"));
        assert!(coerce(t, "a", Value::str("x")).is_err());
        assert!(coerce(t, "a", Value::Null).is_err(), "NOT NULL");
        assert!(coerce(t, "b", Value::Null).is_ok());
        assert!(build_row(t, 1, &[("b".into(), Value::str("x"))]).is_err(), "missing NOT NULL a");
    }
}
