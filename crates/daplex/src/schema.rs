//! The functional schema: entity types, subtypes, non-entity types,
//! functions and constraints.
//!
//! This is the Rust rendition of the shared data structures of Chapter
//! IV.A.2 (`fun_dbid_node`, `ent_node`, `gen_sub_node`, `ent_non_node`,
//! `sub_non_node`, `der_non_node`, `overlap_node`, `function_node`).

use crate::error::{Error, Result};
use abdl::Value;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// The scalar kind of a non-entity type (the `ennt_type` character).
#[derive(Debug, Clone, PartialEq)]
pub enum BaseKind {
    /// `STRING(n)`.
    Str {
        /// Maximum length.
        len: u16,
    },
    /// `INTEGER`.
    Int,
    /// `FLOAT`.
    Float,
    /// `BOOLEAN` (an enumeration of true/false in the thesis's model).
    Bool,
    /// `ENUMERATION (lit1, …, litn)`.
    Enum {
        /// The enumeration literals, in declaration order.
        literals: Vec<String>,
    },
}

impl BaseKind {
    /// Maximum rendered length of a value of this kind — what the
    /// network mapping uses for CHARACTER lengths ("the length of the
    /// longest of the enumeration types").
    pub fn max_length(&self) -> u16 {
        match self {
            BaseKind::Str { len } => *len,
            BaseKind::Int => 20,
            BaseKind::Float => 24,
            BaseKind::Bool => 5,
            BaseKind::Enum { literals } => {
                literals.iter().map(|l| l.len() as u16).max().unwrap_or(1)
            }
        }
    }
}

/// Classification of a non-entity type declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NonEntityClass {
    /// A base type: `TYPE age IS INTEGER RANGE 16..99;`.
    Base,
    /// A subtype of another non-entity type:
    /// `TYPE young_age IS age RANGE 16..25;`.
    Subtype {
        /// The parent non-entity type.
        of: String,
    },
    /// A derived type (`NEW`): `TYPE credit IS NEW INTEGER RANGE 1..5;`.
    Derived {
        /// The underlying type name (a base kind name or another
        /// non-entity type).
        of: String,
    },
}

/// A non-entity type (`ent_non_node` / `sub_non_node` / `der_non_node`).
#[derive(Debug, Clone, PartialEq)]
pub struct NonEntityType {
    /// Type name.
    pub name: String,
    /// Base / subtype / derived classification.
    pub class: NonEntityClass,
    /// The resolved scalar kind.
    pub kind: BaseKind,
    /// Optional integer range constraint (`RANGE lo..hi`).
    pub range: Option<(i64, i64)>,
    /// True for `CONSTANT` declarations.
    pub constant: bool,
    /// The constant's value, when `constant`.
    pub value: Option<Value>,
}

impl NonEntityType {
    /// Check a value against this type's kind and range.
    pub fn check(&self, function: &str, v: &Value) -> Result<()> {
        let bad = |why: &str| Error::ValueOutOfRange {
            function: function.to_owned(),
            got: v.to_string(),
            why: why.to_owned(),
        };
        match (&self.kind, v) {
            (_, Value::Null) => Ok(()),
            (BaseKind::Int, Value::Int(i)) => match self.range {
                Some((lo, hi)) if *i < lo || *i > hi => {
                    Err(bad(&format!("outside range {lo}..{hi}")))
                }
                _ => Ok(()),
            },
            (BaseKind::Float, Value::Float(_)) | (BaseKind::Float, Value::Int(_)) => Ok(()),
            (BaseKind::Str { len }, Value::Str(s)) => {
                if s.len() > *len as usize {
                    Err(bad(&format!("longer than STRING({len})")))
                } else {
                    Ok(())
                }
            }
            (BaseKind::Bool, Value::Str(s)) if &**s == "true" || &**s == "false" => Ok(()),
            (BaseKind::Enum { literals }, Value::Str(s)) => {
                if literals.iter().any(|l| **l == **s) {
                    Ok(())
                } else {
                    Err(bad("not an enumeration literal"))
                }
            }
            _ => Err(bad("wrong value kind")),
        }
    }
}

/// The result type of a function (`fn_type` plus its target pointers).
#[derive(Debug, Clone, PartialEq)]
pub enum FnRange {
    /// An inline `STRING(n)`.
    Str {
        /// Maximum length.
        len: u16,
    },
    /// An inline `INTEGER`.
    Int,
    /// An inline `FLOAT`.
    Float,
    /// An inline `BOOLEAN`.
    Bool,
    /// An inline `ENUMERATION (…)`.
    Enum {
        /// The literals.
        literals: Vec<String>,
    },
    /// A named non-entity type.
    NonEntity(String),
    /// An entity type or subtype.
    Entity(String),
}

/// A function declared on an entity type or subtype (`function_node`).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Result type.
    pub range: FnRange,
    /// `fn_set`: true for `SET OF …` (multi-valued) functions.
    pub set_valued: bool,
}

impl Function {
    /// A scalar (non-entity-valued) function?
    ///
    /// Resolution through named non-entity types requires the schema;
    /// see [`FunctionalSchema::is_entity_valued`].
    pub fn inline_scalar(&self) -> bool {
        matches!(
            self.range,
            FnRange::Str { .. } | FnRange::Int | FnRange::Float | FnRange::Bool | FnRange::Enum { .. }
        )
    }
}

/// An entity type (`ent_node`).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityType {
    /// Entity type name.
    pub name: String,
    /// Functions declared on the type, in declaration order.
    pub functions: Vec<Function>,
}

/// An entity subtype (`gen_sub_node`).
#[derive(Debug, Clone, PartialEq)]
pub struct EntitySubtype {
    /// Subtype name.
    pub name: String,
    /// "A list of one or more entity types and subtypes that are
    /// supertypes or ancestors" (direct supertypes).
    pub supertypes: Vec<String>,
    /// Functions declared on the subtype itself.
    pub functions: Vec<Function>,
}

/// `UNIQUE A, B, C WITHIN D;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueConstraint {
    /// The functions whose combined values are unique.
    pub functions: Vec<String>,
    /// The entity type or subtype the constraint is declared for.
    pub within: String,
}

/// `OVERLAP E, F WITH G, H;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapConstraint {
    /// Left subtype list.
    pub left: Vec<String>,
    /// Right subtype list.
    pub right: Vec<String>,
}

/// A many-to-many multi-valued function pair, realized as a `LINK_X`
/// record in the network view and a `LINK_X` pair file in the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct M2MPair {
    /// The synthesized link name (`LINK_1`, `LINK_2`, …).
    pub link: String,
    /// Entity declaring the forward function.
    pub left_entity: String,
    /// The forward function (on `left_entity`, ranging over
    /// `right_entity`).
    pub left_function: String,
    /// Entity declaring the inverse function.
    pub right_entity: String,
    /// The inverse function.
    pub right_function: String,
}

/// A complete functional database schema (`fun_dbid_node`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FunctionalSchema {
    /// Database name.
    pub name: String,
    /// Non-entity types (base, subtype, derived and constants).
    pub non_entities: Vec<NonEntityType>,
    /// Entity types, in declaration order.
    pub entities: Vec<EntityType>,
    /// Entity subtypes, in declaration order.
    pub subtypes: Vec<EntitySubtype>,
    /// Uniqueness constraints.
    pub uniques: Vec<UniqueConstraint>,
    /// Overlap constraints.
    pub overlaps: Vec<OverlapConstraint>,
}

impl FunctionalSchema {
    /// An empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        FunctionalSchema { name: name.into(), ..Default::default() }
    }

    /// Look up an entity type.
    pub fn entity(&self, name: &str) -> Option<&EntityType> {
        self.entities.iter().find(|e| e.name == name)
    }

    /// Look up an entity subtype.
    pub fn subtype(&self, name: &str) -> Option<&EntitySubtype> {
        self.subtypes.iter().find(|s| s.name == name)
    }

    /// True when `name` is an entity type or subtype.
    pub fn is_entity_like(&self, name: &str) -> bool {
        self.entity(name).is_some() || self.subtype(name).is_some()
    }

    /// Require an entity type or subtype by name.
    pub fn require_entity_like(&self, name: &str) -> Result<()> {
        if self.is_entity_like(name) {
            Ok(())
        } else {
            Err(Error::UnknownEntity(name.to_owned()))
        }
    }

    /// Look up a non-entity type.
    pub fn non_entity(&self, name: &str) -> Option<&NonEntityType> {
        self.non_entities.iter().find(|n| n.name == name)
    }

    /// Functions declared *directly* on an entity type or subtype.
    pub fn own_functions(&self, name: &str) -> &[Function] {
        if let Some(e) = self.entity(name) {
            &e.functions
        } else if let Some(s) = self.subtype(name) {
            &s.functions
        } else {
            &[]
        }
    }

    /// Direct supertypes of a subtype (empty for entity types).
    pub fn supertypes(&self, name: &str) -> &[String] {
        self.subtype(name).map(|s| s.supertypes.as_slice()).unwrap_or(&[])
    }

    /// All ancestors of an entity-like type (transitive supertypes),
    /// nearest first, no duplicates.
    pub fn ancestors(&self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut queue: Vec<String> = self.supertypes(name).to_vec();
        let mut seen = HashSet::new();
        while let Some(next) = queue.first().cloned() {
            queue.remove(0);
            if seen.insert(next.clone()) {
                queue.extend(self.supertypes(&next).iter().cloned());
                out.push(next);
            }
        }
        out
    }

    /// Functions visible on an entity-like type *including inherited
    /// ones* (subtyping "implies value inheritance"), own functions
    /// first.
    pub fn all_functions(&self, name: &str) -> Vec<&Function> {
        let mut out: Vec<&Function> = self.own_functions(name).iter().collect();
        for anc in self.ancestors(name) {
            // `ancestors` returns owned names; re-borrow the functions
            // from `self` so the references outlive this loop.
            let fns = self
                .entity(&anc)
                .map(|e| &e.functions)
                .or_else(|| self.subtype(&anc).map(|s| &s.functions));
            if let Some(fns) = fns {
                for f in fns {
                    if !out.iter().any(|g| g.name == f.name) {
                        out.push(f);
                    }
                }
            }
        }
        out
    }

    /// Find a function (own or inherited) of an entity-like type.
    pub fn function(&self, entity: &str, function: &str) -> Option<&Function> {
        self.all_functions(entity).into_iter().find(|f| f.name == function)
    }

    /// Require a function.
    pub fn require_function(&self, entity: &str, function: &str) -> Result<&Function> {
        self.function(entity, function).ok_or_else(|| Error::UnknownFunction {
            entity: entity.to_owned(),
            function: function.to_owned(),
        })
    }

    /// The entity-like type (own or ancestor) on which `function` is
    /// *declared*, starting the search at `entity`.
    pub fn declaring_type(&self, entity: &str, function: &str) -> Option<String> {
        if self.own_functions(entity).iter().any(|f| f.name == function) {
            return Some(entity.to_owned());
        }
        self.ancestors(entity)
            .into_iter()
            .find(|anc| self.own_functions(anc).iter().any(|f| f.name == function))
    }

    /// Is this function entity-valued (directly or through a named
    /// non-entity type it is *not* — only `FnRange::Entity` counts)?
    pub fn is_entity_valued(&self, f: &Function) -> bool {
        matches!(&f.range, FnRange::Entity(_))
    }

    /// The target entity of an entity-valued function.
    pub fn entity_range<'f>(&self, f: &'f Function) -> Option<&'f str> {
        match &f.range {
            FnRange::Entity(e) => Some(e.as_str()),
            _ => None,
        }
    }

    /// "An entity type is a terminal type only when it is not a
    /// supertype to any entity subtype." (`en_terminal`/`gsn_terminal`.)
    pub fn is_terminal(&self, name: &str) -> bool {
        !self.subtypes.iter().any(|s| s.supertypes.iter().any(|p| p == name))
    }

    /// Direct subtypes of an entity-like type.
    pub fn direct_subtypes<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EntitySubtype> {
        self.subtypes.iter().filter(move |s| s.supertypes.iter().any(|p| p == name))
    }

    /// All entity-like type names, entities first (declaration order).
    pub fn entity_like_names(&self) -> Vec<&str> {
        self.entities
            .iter()
            .map(|e| e.name.as_str())
            .chain(self.subtypes.iter().map(|s| s.name.as_str()))
            .collect()
    }

    /// Pair up many-to-many multi-valued functions.
    ///
    /// "Entity A has a multi-valued function with entity B declared as
    /// the range entity type. Additionally, entity B must also have a
    /// multi-valued function with entity A as the range entity type."
    /// Pairing scans entity-like types in declaration order and matches
    /// each unpaired multi-valued entity function with the first
    /// unpaired inverse; `LINK_X` numbering follows pairing order.
    pub fn m2m_pairs(&self) -> Vec<M2MPair> {
        let names = self.entity_like_names();
        let mut paired: BTreeSet<(String, String)> = BTreeSet::new();
        let mut out = Vec::new();
        for &a in &names {
            for f in self.own_functions(a) {
                if !f.set_valued || !self.is_entity_valued(f) {
                    continue;
                }
                if paired.contains(&(a.to_owned(), f.name.clone())) {
                    continue;
                }
                let Some(b) = self.entity_range(f) else { continue };
                // Find an unpaired inverse on b.
                let inverse = self.own_functions(b).iter().find(|g| {
                    g.set_valued
                        && self.entity_range(g) == Some(a)
                        && !(a == b && g.name == f.name)
                        && !paired.contains(&(b.to_owned(), g.name.clone()))
                });
                if let Some(g) = inverse {
                    paired.insert((a.to_owned(), f.name.clone()));
                    paired.insert((b.to_owned(), g.name.clone()));
                    out.push(M2MPair {
                        link: format!("LINK_{}", out.len() + 1),
                        left_entity: a.to_owned(),
                        left_function: f.name.clone(),
                        right_entity: b.to_owned(),
                        right_function: g.name.clone(),
                    });
                }
            }
        }
        out
    }

    /// Is this (entity, function) one side of a many-to-many pair?
    pub fn m2m_pair_of(&self, entity: &str, function: &str) -> Option<M2MPair> {
        self.m2m_pairs().into_iter().find(|p| {
            (p.left_entity == entity && p.left_function == function)
                || (p.right_entity == entity && p.right_function == function)
        })
    }

    /// Uniqueness groups declared `WITHIN` a given type.
    pub fn uniques_within<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a UniqueConstraint> {
        self.uniques.iter().filter(move |u| u.within == name)
    }

    /// Validate the schema: name uniqueness, reference resolution,
    /// supertype acyclicity, constraint well-formedness.
    pub fn validate(&self) -> Result<()> {
        let mut names: BTreeMap<&str, &str> = BTreeMap::new();
        for n in &self.non_entities {
            if names.insert(&n.name, "non-entity type").is_some() {
                return Err(Error::InvalidSchema(format!("duplicate type name `{}`", n.name)));
            }
        }
        for e in &self.entities {
            if names.insert(&e.name, "entity type").is_some() {
                return Err(Error::InvalidSchema(format!("duplicate type name `{}`", e.name)));
            }
        }
        for s in &self.subtypes {
            if names.insert(&s.name, "entity subtype").is_some() {
                return Err(Error::InvalidSchema(format!("duplicate type name `{}`", s.name)));
            }
        }
        // Non-entity parents resolve.
        for n in &self.non_entities {
            let parent = match &n.class {
                NonEntityClass::Base => None,
                NonEntityClass::Subtype { of } | NonEntityClass::Derived { of } => Some(of),
            };
            if let Some(of) = parent {
                if !is_builtin_kind(of) && self.non_entity(of).is_none() {
                    return Err(Error::InvalidSchema(format!(
                        "non-entity type `{}` refers to unknown type `{of}`",
                        n.name
                    )));
                }
            }
            if let Some((lo, hi)) = n.range {
                if lo > hi {
                    return Err(Error::InvalidSchema(format!(
                        "empty range {lo}..{hi} on `{}`",
                        n.name
                    )));
                }
            }
        }
        // Supertypes resolve and the ISA graph is acyclic.
        for s in &self.subtypes {
            if s.supertypes.is_empty() {
                return Err(Error::InvalidSchema(format!(
                    "subtype `{}` declares no supertype",
                    s.name
                )));
            }
            for p in &s.supertypes {
                if !self.is_entity_like(p) {
                    return Err(Error::InvalidSchema(format!(
                        "subtype `{}` has unknown supertype `{p}`",
                        s.name
                    )));
                }
            }
            if self.ancestors(&s.name).iter().any(|a| a == &s.name) {
                return Err(Error::InvalidSchema(format!(
                    "subtype `{}` participates in an ISA cycle",
                    s.name
                )));
            }
        }
        // Function ranges resolve; function names unique per type
        // (including inherited names — shadowing would corrupt value
        // inheritance). `all_functions` deduplicates, so walk the
        // declaration chain explicitly here.
        for name in self.entity_like_names() {
            let mut seen = HashSet::new();
            let mut chain = vec![name.to_owned()];
            chain.extend(self.ancestors(name));
            for link in &chain {
                for f in self.own_functions(link) {
                    if !seen.insert(f.name.clone()) {
                        return Err(Error::InvalidSchema(format!(
                            "function `{}` declared more than once on (or inherited into) `{name}`",
                            f.name
                        )));
                    }
                }
            }
            for f in self.all_functions(name) {
                match &f.range {
                    FnRange::NonEntity(t)
                        if self.non_entity(t).is_none() => {
                            return Err(Error::InvalidSchema(format!(
                                "function `{}` of `{name}` has unknown type `{t}`",
                                f.name
                            )));
                        }
                    FnRange::Entity(t)
                        if !self.is_entity_like(t) => {
                            return Err(Error::InvalidSchema(format!(
                                "function `{}` of `{name}` ranges over unknown entity `{t}`",
                                f.name
                            )));
                        }
                    _ => {}
                }
            }
        }
        // Constraints resolve.
        for u in &self.uniques {
            self.require_entity_like(&u.within).map_err(|_| {
                Error::InvalidSchema(format!(
                    "UNIQUE constraint WITHIN unknown type `{}`",
                    u.within
                ))
            })?;
            for fname in &u.functions {
                let f = self.require_function(&u.within, fname).map_err(|_| {
                    Error::InvalidSchema(format!(
                        "UNIQUE constraint names unknown function `{fname}` of `{}`",
                        u.within
                    ))
                })?;
                if f.set_valued {
                    return Err(Error::InvalidSchema(format!(
                        "UNIQUE constraint on set-valued function `{fname}`"
                    )));
                }
            }
        }
        for o in &self.overlaps {
            for sub in o.left.iter().chain(&o.right) {
                if self.subtype(sub).is_none() {
                    return Err(Error::InvalidSchema(format!(
                        "OVERLAP constraint names `{sub}`, which is not an entity subtype"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Resolve a function's *scalar* representation for the network
    /// mapping: the `(kind, length)` a non-entity-valued function maps
    /// to. Entity-valued functions return `None`.
    pub fn scalar_kind(&self, f: &Function) -> Option<BaseKind> {
        match &f.range {
            FnRange::Str { len } => Some(BaseKind::Str { len: *len }),
            FnRange::Int => Some(BaseKind::Int),
            FnRange::Float => Some(BaseKind::Float),
            FnRange::Bool => Some(BaseKind::Bool),
            FnRange::Enum { literals } => Some(BaseKind::Enum { literals: literals.clone() }),
            FnRange::NonEntity(t) => self.non_entity(t).map(|n| n.kind.clone()),
            FnRange::Entity(_) => None,
        }
    }

    /// Check a scalar value against a function's declared type
    /// (including named non-entity ranges).
    pub fn check_value(&self, f: &Function, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        let bad = |why: &str| Error::ValueOutOfRange {
            function: f.name.clone(),
            got: v.to_string(),
            why: why.to_owned(),
        };
        match &f.range {
            FnRange::NonEntity(t) => {
                let n = self
                    .non_entity(t)
                    .ok_or_else(|| Error::InvalidSchema(format!("unknown type `{t}`")))?;
                n.check(&f.name, v)
            }
            FnRange::Str { len } => match v {
                Value::Str(s) if s.len() <= *len as usize => Ok(()),
                Value::Str(_) => Err(bad(&format!("longer than STRING({len})"))),
                _ => Err(bad("expected a string")),
            },
            FnRange::Int => match v {
                Value::Int(_) => Ok(()),
                _ => Err(bad("expected an integer")),
            },
            FnRange::Float => match v {
                Value::Float(_) | Value::Int(_) => Ok(()),
                _ => Err(bad("expected a number")),
            },
            FnRange::Bool => match v {
                Value::Str(s) if &**s == "true" || &**s == "false" => Ok(()),
                _ => Err(bad("expected true or false")),
            },
            FnRange::Enum { literals } => match v {
                Value::Str(s) if literals.iter().any(|l| **l == **s) => Ok(()),
                _ => Err(bad("not an enumeration literal")),
            },
            FnRange::Entity(_) => match v {
                Value::Int(_) => Ok(()), // entity keys
                _ => Err(bad("expected an entity key")),
            },
        }
    }
}

/// Built-in kind names usable as derived-type parents.
fn is_builtin_kind(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "INTEGER" | "FLOAT" | "BOOLEAN" | "STRING"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fun(name: &str, range: FnRange, set_valued: bool) -> Function {
        Function { name: name.into(), range, set_valued }
    }

    /// A miniature of the University schema: person ⟵ student;
    /// faculty/course with a many-to-many teaching/taught_by pair.
    fn mini() -> FunctionalSchema {
        let mut s = FunctionalSchema::new("mini");
        s.non_entities.push(NonEntityType {
            name: "age_type".into(),
            class: NonEntityClass::Base,
            kind: BaseKind::Int,
            range: Some((16, 99)),
            constant: false,
            value: None,
        });
        s.entities.push(EntityType {
            name: "person".into(),
            functions: vec![
                fun("name", FnRange::Str { len: 30 }, false),
                fun("age", FnRange::NonEntity("age_type".into()), false),
            ],
        });
        s.entities.push(EntityType {
            name: "faculty".into(),
            functions: vec![
                fun("rank", FnRange::Enum { literals: vec!["assistant".into(), "full".into()] }, false),
                fun("teaching", FnRange::Entity("course".into()), true),
            ],
        });
        s.entities.push(EntityType {
            name: "course".into(),
            functions: vec![
                fun("title", FnRange::Str { len: 30 }, false),
                fun("taught_by", FnRange::Entity("faculty".into()), true),
            ],
        });
        s.subtypes.push(EntitySubtype {
            name: "student".into(),
            supertypes: vec!["person".into()],
            functions: vec![
                fun("major", FnRange::Str { len: 20 }, false),
                fun("advisor", FnRange::Entity("faculty".into()), false),
            ],
        });
        s.uniques.push(UniqueConstraint {
            functions: vec!["title".into()],
            within: "course".into(),
        });
        s
    }

    #[test]
    fn validates() {
        mini().validate().unwrap();
    }

    #[test]
    fn inheritance_exposes_supertype_functions() {
        let s = mini();
        let fs = s.all_functions("student");
        let names: Vec<&str> = fs.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["major", "advisor", "name", "age"]);
        assert_eq!(s.declaring_type("student", "name").as_deref(), Some("person"));
        assert_eq!(s.declaring_type("student", "major").as_deref(), Some("student"));
        assert_eq!(s.declaring_type("student", "ghost"), None);
    }

    #[test]
    fn terminal_flags() {
        let s = mini();
        assert!(!s.is_terminal("person"));
        assert!(s.is_terminal("student"));
        assert!(s.is_terminal("course"));
    }

    #[test]
    fn m2m_pairing_finds_teaching_taught_by() {
        let s = mini();
        let pairs = s.m2m_pairs();
        assert_eq!(pairs.len(), 1);
        let p = &pairs[0];
        assert_eq!(p.link, "LINK_1");
        assert_eq!(p.left_entity, "faculty");
        assert_eq!(p.left_function, "teaching");
        assert_eq!(p.right_entity, "course");
        assert_eq!(p.right_function, "taught_by");
        assert!(s.m2m_pair_of("course", "taught_by").is_some());
        assert!(s.m2m_pair_of("student", "advisor").is_none());
    }

    #[test]
    fn one_to_many_is_not_paired() {
        let mut s = mini();
        // enrolled: student -> SET OF course, with no inverse.
        s.subtypes[0]
            .functions
            .push(fun("enrolled", FnRange::Entity("course".into()), true));
        s.validate().unwrap();
        // Still only the teaching/taught_by pair.
        assert_eq!(s.m2m_pairs().len(), 1);
        assert!(s.m2m_pair_of("student", "enrolled").is_none());
    }

    #[test]
    fn validate_rejects_isa_cycle() {
        let mut s = mini();
        s.subtypes.push(EntitySubtype {
            name: "a".into(),
            supertypes: vec!["b".into()],
            functions: vec![],
        });
        s.subtypes.push(EntitySubtype {
            name: "b".into(),
            supertypes: vec!["a".into()],
            functions: vec![],
        });
        assert!(matches!(s.validate(), Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn validate_rejects_function_shadowing() {
        let mut s = mini();
        // student re-declares `name`, shadowing person's.
        s.subtypes[0].functions.push(fun("name", FnRange::Int, false));
        assert!(matches!(s.validate(), Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn validate_rejects_unique_on_set_valued() {
        let mut s = mini();
        s.uniques.push(UniqueConstraint {
            functions: vec!["teaching".into()],
            within: "faculty".into(),
        });
        assert!(matches!(s.validate(), Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn value_checks_respect_ranges_and_enums() {
        let s = mini();
        let age = s.function("person", "age").unwrap().clone();
        assert!(s.check_value(&age, &Value::Int(20)).is_ok());
        assert!(s.check_value(&age, &Value::Int(7)).is_err());
        assert!(s.check_value(&age, &Value::Null).is_ok());
        let rank = s.function("faculty", "rank").unwrap().clone();
        assert!(s.check_value(&rank, &Value::str("full")).is_ok());
        assert!(s.check_value(&rank, &Value::str("emeritus")).is_err());
        let name = s.function("person", "name").unwrap().clone();
        assert!(s.check_value(&name, &Value::str("x".repeat(31))).is_err());
    }

    #[test]
    fn scalar_kind_resolves_named_types() {
        let s = mini();
        let age = s.function("person", "age").unwrap();
        assert_eq!(s.scalar_kind(age), Some(BaseKind::Int));
        let advisor = s.function("student", "advisor").unwrap();
        assert_eq!(s.scalar_kind(advisor), None);
    }

    #[test]
    fn ancestors_handle_multiple_supertypes() {
        let mut s = mini();
        s.entities.push(EntityType { name: "employee".into(), functions: vec![] });
        s.subtypes.push(EntitySubtype {
            name: "ta".into(),
            supertypes: vec!["student".into(), "employee".into()],
            functions: vec![],
        });
        s.validate().unwrap();
        let anc = s.ancestors("ta");
        assert_eq!(anc, vec!["student".to_owned(), "employee".to_owned(), "person".to_owned()]);
    }
}
