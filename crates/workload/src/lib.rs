//! `ccsim-workload` — the database and workload model of the paper.
//!
//! Defines the identifier types of the simulated database ([`ObjId`],
//! [`TxnId`], [`TermId`]), the full simulation parameter set of the paper's
//! Table 1 ([`Params`], with [`Params::paper_baseline`] matching Table 2),
//! and the transaction [`Generator`] that draws [`TxnSpec`]s: readset sizes
//! uniform on `[min_size, max_size]`, objects sampled without replacement,
//! and writes chosen per read with probability `write_prob`.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod classes;
mod gen;
mod objmap;
mod params;
mod spec;
mod types;

pub use classes::{class_table, TxnClass};
pub use gen::Generator;
pub use objmap::ObjMap;
pub use params::{ParamError, Params, ResourceSpec, RestartDelayPolicy};
pub use spec::TxnSpec;
pub use types::{ObjId, TermId, TxnId};
