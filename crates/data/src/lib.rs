//! # pcor-data
//!
//! Relational data substrate for the PCOR reproduction (SIGMOD 2021).
//!
//! PCOR operates over a dataset instance `D` of a relational schema `R` whose
//! attributes are `attr(R) = {A_1, …, A_m, M}`: `m` categorical attributes and
//! one numeric *metric* attribute `M` against which outliers are defined. A
//! **context** is a bit vector of length `t = Σ|A_i|` selecting, for every
//! attribute, a subset of its domain values; it filters the dataset to the
//! population `D_C`.
//!
//! This crate provides:
//!
//! * [`schema`] — attribute domains, the schema and the bit layout of contexts;
//! * [`context`] — the context bit vector, its well-formedness rule, coverage
//!   checks, Hamming-distance-1 neighborhood (the edges of the context graph)
//!   and predicate rendering;
//! * [`record`] / [`dataset`] — records, datasets, neighboring datasets
//!   (add/remove records, as required by differential privacy), and fast
//!   population evaluation through per-value record bitmaps ([`bitmap`]);
//! * [`generator`] — synthetic versions of the two evaluation datasets used in
//!   the paper (Ontario public-sector salary and US homicide reports), with
//!   matching schemas, domain sizes and planted contextual outliers;
//! * [`csv`] — simple CSV import/export so users can plug in their own data.

// `unsafe` is denied crate-wide and allowed in exactly one place: the
// `kernel` module's `std::arch` SIMD intrinsics (see its module docs for the
// containment story). Everything else remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod context;
pub mod csv;
pub mod dataset;
pub mod generator;
pub mod kernel;
pub mod population;
pub mod record;
pub mod schema;

pub use bitmap::RecordBitmap;
pub use context::Context;
pub use dataset::Dataset;
pub use kernel::KernelKind;
pub use population::{HaltFn, PopulationCursor};
pub use record::Record;
pub use schema::{Attribute, Schema};

/// Errors produced by the data substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A record's categorical value index was outside its attribute's domain.
    ValueOutOfDomain {
        /// Attribute index within the schema.
        attribute: usize,
        /// Offending value index.
        value: usize,
        /// Size of the attribute's domain.
        domain_size: usize,
    },
    /// A record had the wrong number of categorical values for the schema.
    ArityMismatch {
        /// Number of categorical attributes the schema defines.
        expected: usize,
        /// Number of values the record carried.
        actual: usize,
    },
    /// A context's bit length did not match the schema's total value count.
    ContextLengthMismatch {
        /// `t = Σ|A_i|` for the schema.
        expected: usize,
        /// Length of the offending context.
        actual: usize,
    },
    /// A schema was constructed with no categorical attributes or an empty
    /// attribute domain.
    EmptySchema,
    /// Generic malformed-input error (CSV parsing, invalid configuration).
    Malformed(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::ValueOutOfDomain { attribute, value, domain_size } => write!(
                f,
                "value index {value} out of domain (size {domain_size}) for attribute {attribute}"
            ),
            DataError::ArityMismatch { expected, actual } => {
                write!(f, "record has {actual} categorical values, schema expects {expected}")
            }
            DataError::ContextLengthMismatch { expected, actual } => {
                write!(f, "context has {actual} bits, schema expects {expected}")
            }
            DataError::EmptySchema => {
                write!(f, "schema must have at least one non-empty attribute")
            }
            DataError::Malformed(msg) => write!(f, "malformed input: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

/// Convenience result alias for the data substrate.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_with_context() {
        let e = DataError::ValueOutOfDomain { attribute: 1, value: 9, domain_size: 3 };
        assert!(e.to_string().contains("attribute 1"));
        let e = DataError::ArityMismatch { expected: 3, actual: 2 };
        assert!(e.to_string().contains("expects 3"));
        let e = DataError::ContextLengthMismatch { expected: 14, actual: 12 };
        assert!(e.to_string().contains("14"));
        assert!(DataError::EmptySchema.to_string().contains("schema"));
        assert!(DataError::Malformed("x".into()).to_string().contains("x"));
    }
}
