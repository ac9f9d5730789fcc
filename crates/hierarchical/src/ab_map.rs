//! The hierarchical→ABDM mapping.
//!
//! One kernel file per segment type; `<FILE, seg>`, `<seg, key>`, one
//! keyword per field, and `<{parent}_{child}, parent-key>` on child
//! segments — the member-side convention shared by every MLDS mapping.

use crate::error::{Error, Result};
use crate::schema::{FieldType, HierSchema, Segment};
use abdl::{value::truncate_str, Kernel, Value};

/// The attribute holding a segment occurrence's own key is named after
/// its segment type.
pub fn key_attr(segment: &str) -> &str {
    segment
}

/// Create the kernel files for a hierarchical schema. (Sequence-field
/// uniqueness is *within one parent*, so it is enforced by the DL/I
/// session, not by a global kernel constraint.)
pub fn install<K: Kernel>(schema: &HierSchema, kernel: &mut K) {
    for s in &schema.segments {
        kernel.create_file(&s.name);
    }
}

/// Coerce a value into a field's declared type.
pub fn coerce(segment: &Segment, field: &str, value: Value) -> Result<Value> {
    let f = segment.require_field(field)?;
    if value.is_null() {
        return Ok(Value::Null);
    }
    let mismatch = |v: &Value| Error::TypeMismatch {
        segment: segment.name.clone(),
        field: field.to_owned(),
        expected: f.typ.to_string(),
        got: v.to_string(),
    };
    match (&f.typ, value) {
        (FieldType::Int, Value::Int(i)) => Ok(Value::Int(i)),
        (FieldType::Int, Value::Float(x)) if x.fract() == 0.0 => Ok(Value::Int(x as i64)),
        (FieldType::Int, v) => Err(mismatch(&v)),
        (FieldType::Float, Value::Float(x)) => Ok(Value::Float(x)),
        (FieldType::Float, Value::Int(i)) => Ok(Value::Float(i as f64)),
        (FieldType::Float, v) => Err(mismatch(&v)),
        (FieldType::Char { len }, Value::Str(s)) => Ok(Value::Str(truncate_str(s, *len as usize))),
        (FieldType::Char { .. }, v) => Err(mismatch(&v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    #[test]
    fn coercion_rules() {
        let seg = Segment {
            name: "s".into(),
            parent: None,
            fields: vec![
                Field { name: "n".into(), typ: FieldType::Int },
                Field { name: "t".into(), typ: FieldType::Char { len: 3 } },
            ],
            sequence: None,
        };
        assert_eq!(coerce(&seg, "n", Value::Float(4.0)).unwrap(), Value::Int(4));
        assert!(coerce(&seg, "n", Value::str("x")).is_err());
        assert_eq!(coerce(&seg, "t", Value::str("abcdef")).unwrap(), Value::str("abc"));
        assert!(coerce(&seg, "ghost", Value::Int(1)).is_err());
    }
}
