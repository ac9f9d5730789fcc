//! The single-site kernel execution engine.
//!
//! A [`Store`] is one backend's worth of kernel database: files of
//! records, per-attribute *directory* indexes, uniqueness ("duplicates
//! are not allowed") constraints, and an executor for the five ABDL
//! operations. The multi-backend kernel (`mlds-mbds`) composes many
//! `Store`s behind a controller.

mod dump;
mod kernel;
pub mod postings;
mod response;
mod stats;
mod store;

pub use dump::{dump, restore, DUMP_HEADER};
pub use kernel::{Kernel, KernelHealth};
pub use postings::Postings;
pub use response::{GroupRow, Response};
pub use stats::{ExecStats, ExecTotals};
pub use store::{aggregate, Store};
