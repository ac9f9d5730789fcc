//! The network schema: record types and set types.
//!
//! Mirrors the shared data structures of Chapter IV.A.1 of the thesis
//! (`net_dbid_node`, `nset_node`, `set_select_node`, `nrec_node`,
//! `nattr_node`) in idiomatic Rust.

use crate::error::{Error, Result};
use crate::SYSTEM;
use std::fmt;

/// A network data-item type (the `nan_type`/`nan_length` pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetAttrType {
    /// `FIXED` — an integer.
    Int,
    /// `FLOAT` — a floating-point number with a maximum decimal length.
    Float {
        /// Maximum length of the decimal portion (`nan_dec_length`).
        dec: u16,
    },
    /// `CHARACTER n` — a string of maximum length `n`.
    Char {
        /// Maximum length in characters.
        len: u16,
    },
}

impl fmt::Display for NetAttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetAttrType::Int => write!(f, "FIXED"),
            NetAttrType::Float { dec } => write!(f, "FLOAT {dec}"),
            NetAttrType::Char { len } => write!(f, "CHARACTER {len}"),
        }
    }
}

/// An integrity check carried from the functional schema's non-entity
/// types (§V.C: "the task is to maintain the integrity constraints of
/// the non-entity types as they are mapped into the network data
/// types").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueCheck {
    /// An integer range `RANGE lo..hi`.
    Range {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// An enumeration: `VALUES (lit1, …, litn)`.
    OneOf {
        /// The permitted literals.
        literals: Vec<String>,
    },
}

impl ValueCheck {
    /// Does `v` satisfy the check? (NULL always does.)
    pub fn allows(&self, v: &abdl::Value) -> bool {
        match (self, v) {
            (_, abdl::Value::Null) => true,
            (ValueCheck::Range { lo, hi }, abdl::Value::Int(i)) => i >= lo && i <= hi,
            (ValueCheck::Range { .. }, _) => false,
            (ValueCheck::OneOf { literals }, abdl::Value::Str(s)) => {
                literals.iter().any(|l| **l == **s)
            }
            (ValueCheck::OneOf { .. }, _) => false,
        }
    }
}

impl fmt::Display for ValueCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueCheck::Range { lo, hi } => write!(f, "RANGE {lo}..{hi}"),
            ValueCheck::OneOf { literals } => write!(f, "VALUES ({})", literals.join(", ")),
        }
    }
}

/// A data item (attribute) of a record type — the `nattr_node`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrType {
    /// Attribute name.
    pub name: String,
    /// COBOL-style level number (the thesis keeps flat `02` items).
    pub level: u8,
    /// Data type.
    pub typ: NetAttrType,
    /// `nan_dup_flag`: initialized to allow duplicates; cleared by
    /// uniqueness constraints and scalar multi-valued functions.
    pub dup_allowed: bool,
    /// Carried-over integrity check (range or enumeration).
    pub check: Option<ValueCheck>,
}

impl AttrType {
    /// A level-02 attribute that allows duplicates.
    pub fn new(name: impl Into<String>, typ: NetAttrType) -> Self {
        AttrType { name: name.into(), level: 2, typ, dup_allowed: true, check: None }
    }

    /// Builder: attach an integrity check.
    pub fn with_check(mut self, check: ValueCheck) -> Self {
        self.check = Some(check);
        self
    }
}

/// A record type — the `nrec_node`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordType {
    /// Record type name.
    pub name: String,
    /// The data items, in declaration order.
    pub attrs: Vec<AttrType>,
    /// `DUPLICATES ARE NOT ALLOWED FOR a, b, …` groups: each group is a
    /// set of attributes whose combined values must be unique.
    pub unique_groups: Vec<Vec<String>>,
}

impl RecordType {
    /// An empty record type.
    pub fn new(name: impl Into<String>) -> Self {
        RecordType { name: name.into(), attrs: Vec::new(), unique_groups: Vec::new() }
    }

    /// Find a data item by name.
    pub fn attr(&self, name: &str) -> Option<&AttrType> {
        self.attrs.iter().find(|a| a.name == name)
    }

    /// Require a data item by name.
    pub fn require_attr(&self, name: &str) -> Result<&AttrType> {
        self.attr(name).ok_or_else(|| Error::UnknownItem {
            record: self.name.clone(),
            item: name.to_owned(),
        })
    }
}

/// Set insertion mode (`nsn_insert_mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insertion {
    /// `AUTOMATIC` — a newly stored member record is inserted into the
    /// current set occurrence automatically.
    Automatic,
    /// `MANUAL` — membership is established by explicit CONNECT.
    Manual,
}

impl fmt::Display for Insertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Insertion::Automatic => "AUTOMATIC",
            Insertion::Manual => "MANUAL",
        })
    }
}

/// Set retention mode (`nsn_retent_mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// `FIXED` — records connected to a set occurrence remain in it.
    Fixed,
    /// `OPTIONAL` — members may be disconnected and reconnected.
    Optional,
    /// `MANUAL` — members may change owners manually.
    Manual,
}

impl fmt::Display for Retention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Retention::Fixed => "FIXED",
            Retention::Optional => "OPTIONAL",
            Retention::Manual => "MANUAL",
        })
    }
}

/// Set selection mode (the `set_select_node`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// `BY APPLICATION` — the current set occurrence is used.
    Application,
    /// `BY VALUE OF item IN record`.
    Value {
        /// Item whose value selects the occurrence.
        item: String,
        /// Record carrying the item.
        record: String,
    },
    /// `BY STRUCTURAL item IN record1 = item IN record2`.
    Structural {
        /// Item name equated between the two records.
        item: String,
        /// First record.
        record1: String,
        /// Second record.
        record2: String,
    },
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Selection::Application => write!(f, "BY APPLICATION"),
            Selection::Value { item, record } => write!(f, "BY VALUE OF {item} IN {record}"),
            Selection::Structural { item, record1, record2 } => {
                write!(f, "BY STRUCTURAL {item} IN {record1} = {item} IN {record2}")
            }
        }
    }
}

/// A set owner: SYSTEM or a record type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Owner {
    /// The schema-defined SYSTEM owner (singular sets).
    System,
    /// An ordinary record type.
    Record(String),
}

impl Owner {
    /// The owner record-type name, when not SYSTEM.
    pub fn record(&self) -> Option<&str> {
        match self {
            Owner::System => None,
            Owner::Record(r) => Some(r),
        }
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Owner::System => f.write_str(SYSTEM),
            Owner::Record(r) => f.write_str(r),
        }
    }
}

/// Provenance of a set type.
///
/// Native network schemas carry [`SetOrigin::Native`]; the functional→
/// network transformer records what each synthesized set *represents*,
/// because the Chapter-VI translation differs per flavor ("Recalling the
/// two types of sets in the functional data model, ISA relationships and
/// Daplex functions…").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetOrigin {
    /// Declared directly in network DDL.
    Native,
    /// The SYSTEM-owned set every transformed entity type belongs to.
    SystemOwned {
        /// The entity record type.
        entity: String,
    },
    /// An ISA (subtype) relationship: owner = supertype, member = subtype.
    Isa {
        /// Supertype record name.
        supertype: String,
        /// Subtype record name.
        subtype: String,
    },
    /// A single-valued entity function `f : domain → range`;
    /// owner = range record, member = domain record.
    SingleValuedFn {
        /// Function name (also the set name).
        function: String,
        /// Domain entity (the member record; the function is declared
        /// on it — "the function belongs to the member record type").
        domain: String,
        /// Range entity (the owner record).
        range: String,
    },
    /// A one-to-many multi-valued function `f : domain → set of range`;
    /// owner = domain record, member = range record.
    MultiValuedFn {
        /// Function name (also the set name).
        function: String,
        /// Domain entity (the owner record; the function "belongs to
        /// the owner record type").
        domain: String,
        /// Range entity (the member record).
        range: String,
    },
    /// One side of a many-to-many pair realized through a `LINK_X`
    /// record: owner = domain record, member = the link record.
    ManyToManyFn {
        /// Function name (also the set name).
        function: String,
        /// Domain entity (the owner record).
        domain: String,
        /// The synthesized link record type name (`LINK_X`).
        link: String,
    },
}

/// A set type — the `nset_node`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetType {
    /// Set name.
    pub name: String,
    /// Owner (SYSTEM or a record type).
    pub owner: Owner,
    /// Member record type. (A full CODASYL set may have several member
    /// record types; the thesis's transformed schemas always have one,
    /// and the MLDS network interface restricts itself accordingly.)
    pub member: String,
    /// Insertion mode.
    pub insertion: Insertion,
    /// Retention mode.
    pub retention: Retention,
    /// Set-selection mode.
    pub selection: Selection,
    /// Provenance recorded by the schema transformer.
    pub origin: SetOrigin,
}

impl SetType {
    /// A native set with the given modes.
    pub fn new(
        name: impl Into<String>,
        owner: Owner,
        member: impl Into<String>,
        insertion: Insertion,
        retention: Retention,
    ) -> Self {
        SetType {
            name: name.into(),
            owner,
            member: member.into(),
            insertion,
            retention,
            selection: Selection::Application,
            origin: SetOrigin::Native,
        }
    }
}

/// An overlap constraint group carried over from a functional schema:
/// members of any subtype on the `left` may also belong to subtypes on
/// the `right` (and vice versa).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapGroup {
    /// Left subtype record names.
    pub left: Vec<String>,
    /// Right subtype record names.
    pub right: Vec<String>,
}

impl OverlapGroup {
    /// True when subtypes `a` and `b` are declared overlappable by this
    /// group (in either direction).
    pub fn allows(&self, a: &str, b: &str) -> bool {
        let l = |s: &str| self.left.iter().any(|x| x == s);
        let r = |s: &str| self.right.iter().any(|x| x == s);
        (l(a) && r(b)) || (l(b) && r(a))
    }
}

/// A network database schema — the `net_dbid_node`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkSchema {
    /// Schema (database) name.
    pub name: String,
    /// Record types, in declaration order.
    pub records: Vec<RecordType>,
    /// Set types, in declaration order.
    pub sets: Vec<SetType>,
    /// The overlap table (empty for native network schemas).
    pub overlaps: Vec<OverlapGroup>,
}

impl NetworkSchema {
    /// An empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        NetworkSchema { name: name.into(), ..Default::default() }
    }

    /// Look a record type up by name.
    pub fn record(&self, name: &str) -> Option<&RecordType> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Look a record type up by name, mutably.
    pub fn record_mut(&mut self, name: &str) -> Option<&mut RecordType> {
        self.records.iter_mut().find(|r| r.name == name)
    }

    /// Require a record type.
    pub fn require_record(&self, name: &str) -> Result<&RecordType> {
        self.record(name).ok_or_else(|| Error::UnknownRecord(name.to_owned()))
    }

    /// Look a set type up by name.
    pub fn set(&self, name: &str) -> Option<&SetType> {
        self.sets.iter().find(|s| s.name == name)
    }

    /// Require a set type.
    pub fn require_set(&self, name: &str) -> Result<&SetType> {
        self.set(name).ok_or_else(|| Error::UnknownSet(name.to_owned()))
    }

    /// All sets in which `record` is the member.
    pub fn sets_with_member<'a>(&'a self, record: &'a str) -> impl Iterator<Item = &'a SetType> {
        self.sets.iter().filter(move |s| s.member == record)
    }

    /// All sets owned by `record`.
    pub fn sets_with_owner<'a>(&'a self, record: &'a str) -> impl Iterator<Item = &'a SetType> {
        self.sets.iter().filter(move |s| s.owner.record() == Some(record))
    }

    /// True when the schema was produced by the functional→network
    /// transformer (any set has non-native provenance).
    pub fn is_transformed(&self) -> bool {
        self.sets.iter().any(|s| s.origin != SetOrigin::Native)
    }

    /// Validate referential consistency of the schema.
    pub fn validate(&self) -> Result<()> {
        let mut names = std::collections::HashSet::new();
        for r in &self.records {
            if r.name.eq_ignore_ascii_case(SYSTEM) {
                return Err(Error::InvalidSchema("record type may not be named SYSTEM".into()));
            }
            if !names.insert(&r.name) {
                return Err(Error::InvalidSchema(format!("duplicate record type `{}`", r.name)));
            }
            let mut attrs = std::collections::HashSet::new();
            for a in &r.attrs {
                if !attrs.insert(&a.name) {
                    return Err(Error::InvalidSchema(format!(
                        "duplicate data item `{}` in record `{}`",
                        a.name, r.name
                    )));
                }
            }
            for group in &r.unique_groups {
                if group.is_empty() {
                    return Err(Error::InvalidSchema(format!(
                        "empty uniqueness group in record `{}`",
                        r.name
                    )));
                }
                for item in group {
                    r.require_attr(item).map_err(|_| {
                        Error::InvalidSchema(format!(
                            "uniqueness constraint on `{}` names unknown item `{}`",
                            r.name, item
                        ))
                    })?;
                }
            }
        }
        let mut set_names = std::collections::HashSet::new();
        for s in &self.sets {
            if !set_names.insert(&s.name) {
                return Err(Error::InvalidSchema(format!("duplicate set type `{}`", s.name)));
            }
            if let Owner::Record(owner) = &s.owner {
                self.require_record(owner).map_err(|_| {
                    Error::InvalidSchema(format!(
                        "set `{}` owned by unknown record `{}`",
                        s.name, owner
                    ))
                })?;
            }
            self.require_record(&s.member).map_err(|_| {
                Error::InvalidSchema(format!(
                    "set `{}` has unknown member record `{}`",
                    s.name, s.member
                ))
            })?;
        }
        for o in &self.overlaps {
            for sub in o.left.iter().chain(&o.right) {
                self.require_record(sub).map_err(|_| {
                    Error::InvalidSchema(format!("overlap group names unknown record `{sub}`"))
                })?;
            }
        }
        // Kernel-attribute collision check: in the AB representation a
        // record's kernel file carries its key attribute (named after
        // the record type), one keyword per data item, and one keyword
        // per set the record is a *member* of. All of these must be
        // distinct.
        for r in &self.records {
            let mut attrs = std::collections::HashSet::new();
            attrs.insert(r.name.as_str());
            for a in &r.attrs {
                if !attrs.insert(a.name.as_str()) {
                    return Err(Error::InvalidSchema(format!(
                        "data item `{}` of record `{}` collides with its kernel key attribute",
                        a.name, r.name
                    )));
                }
            }
            for s in self.sets_with_member(&r.name) {
                if !attrs.insert(s.name.as_str()) {
                    return Err(Error::InvalidSchema(format!(
                        "set `{}` collides with an attribute of its member record `{}` \
                         in the kernel representation",
                        s.name, r.name
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NetworkSchema {
        let mut s = NetworkSchema::new("univ");
        let mut person = RecordType::new("person");
        person.attrs.push(AttrType::new("name", NetAttrType::Char { len: 30 }));
        person.attrs.push(AttrType::new("age", NetAttrType::Int));
        let mut student = RecordType::new("student");
        student.attrs.push(AttrType::new("major", NetAttrType::Char { len: 20 }));
        s.records.push(person);
        s.records.push(student);
        s.sets.push(SetType::new(
            "person_student",
            Owner::Record("person".into()),
            "student",
            Insertion::Automatic,
            Retention::Fixed,
        ));
        s.sets.push(SetType::new(
            "system_person",
            Owner::System,
            "person",
            Insertion::Automatic,
            Retention::Fixed,
        ));
        s
    }

    #[test]
    fn lookup_and_membership_queries() {
        let s = sample();
        assert!(s.record("person").is_some());
        assert!(s.require_record("ghost").is_err());
        assert_eq!(s.sets_with_member("student").count(), 1);
        assert_eq!(s.sets_with_owner("person").count(), 1);
        assert_eq!(s.set("system_person").unwrap().owner, Owner::System);
    }

    #[test]
    fn validate_accepts_good_schema() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_dangling_member() {
        let mut s = sample();
        s.sets.push(SetType::new(
            "bad",
            Owner::Record("person".into()),
            "ghost",
            Insertion::Manual,
            Retention::Optional,
        ));
        assert!(matches!(s.validate(), Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn validate_rejects_duplicate_records_and_items() {
        let mut s = sample();
        s.records.push(RecordType::new("person"));
        assert!(s.validate().is_err());

        let mut s = sample();
        let r = s.record_mut("person").unwrap();
        r.attrs.push(AttrType::new("name", NetAttrType::Int));
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_unique_group() {
        let mut s = sample();
        s.record_mut("person").unwrap().unique_groups.push(vec!["ghost".into()]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn overlap_allows_is_symmetric() {
        let g = OverlapGroup { left: vec!["faculty".into()], right: vec!["support_staff".into()] };
        assert!(g.allows("faculty", "support_staff"));
        assert!(g.allows("support_staff", "faculty"));
        assert!(!g.allows("faculty", "student"));
    }

    #[test]
    fn transformed_detection() {
        let mut s = sample();
        assert!(!s.is_transformed());
        s.sets[0].origin =
            SetOrigin::Isa { supertype: "person".into(), subtype: "student".into() };
        assert!(s.is_transformed());
    }
}
