#![warn(missing_docs)]

//! # ABDM / ABDL — the kernel data model and language of MLDS
//!
//! The attribute-based data model (ABDM) was chosen as the *kernel data
//! model* of the Multi-Lingual Database System "because of its excellent
//! combination of simplicity and power": every logical concept is
//! represented as a record of *attribute–value pairs* (keywords), records
//! are grouped into *files*, and records are located by *keyword
//! predicates* combined into disjunctive-normal-form *queries*.
//!
//! The attribute-based data language (ABDL) is the matching *kernel data
//! language*: five basic operations — `INSERT`, `DELETE`, `UPDATE`,
//! `RETRIEVE` and `RETRIEVE-COMMON` — each qualified by keyword lists,
//! queries, modifiers, target lists and by-clauses.
//!
//! This crate provides:
//!
//! * the data model: [`Value`], [`Keyword`], [`Record`], [`query`] —
//!   typed values, attribute–value pairs, records with optional record
//!   bodies, and DNF queries with the six relational operators;
//! * the language: [`request`] — the request/transaction AST — together
//!   with a full text [`parse`]r and canonical printer (round-trip safe);
//! * a single-site execution engine: [`engine`] — an indexed in-memory
//!   kernel store (`Store`) executing requests and transactions, with
//!   per-request cost accounting used by the multi-backend simulator.
//!
//! The multi-backend kernel (MBDS) that executes ABDL in parallel lives in
//! the sibling `mlds-mbds` crate; the language interfaces that *generate*
//! ABDL live in `mlds-daplex`, `mlds-codasyl` and `mlds-translator`.
//!
//! ## Example
//!
//! ```
//! use abdl::engine::Store;
//! use abdl::parse::parse_request;
//!
//! let mut store = Store::new();
//! store.execute(&parse_request(
//!     "INSERT (<FILE, course>, <course, 1>, <title, 'Advanced Database'>, <credits, 4>)"
//! ).unwrap()).unwrap();
//!
//! let resp = store.execute(&parse_request(
//!     "RETRIEVE ((FILE = course) and (title = 'Advanced Database')) (title, credits)"
//! ).unwrap()).unwrap();
//! assert_eq!(resp.records().len(), 1);
//! ```

pub mod engine;
pub mod error;
pub mod parse;
pub mod prng;
pub mod query;
pub mod record;
pub mod request;
pub mod value;

pub use engine::{ExecTotals, Kernel, KernelHealth, Postings, Response, Store};
pub use error::{Error, Result};
pub use query::{Conjunction, Predicate, Query, RelOp};
pub use record::{DbKey, Keyword, Record};
pub use request::{Aggregate, Modifier, Request, Target, TargetList, Transaction};
pub use value::Value;

/// The distinguished attribute naming the file a record belongs to.
///
/// Every ABDM record carries `<FILE, file-name>` as its first keyword; a
/// query whose first predicate is `(FILE = f)` is routed to file `f`.
pub const FILE_ATTR: &str = "FILE";
