//! The frozen VDX benchmark; see `README.md` beside this package's manifest.
//!
//! `product` is the only module that names product code.

pub mod compare;
pub mod json;
pub mod product;
pub mod report;
pub mod run;
pub mod script;
pub mod trace;
