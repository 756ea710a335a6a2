//! Relational schema, value and row model.
//!
//! This crate defines the vocabulary every other component speaks:
//!
//! * [`Value`] / [`Row`] — typed attribute values and named tuples;
//! * [`Relation`], [`Index`], [`ForeignKey`], [`Schema`] — the paper's §II-A
//!   models of a relation (set of attributes with a primary key and foreign
//!   keys), a covered index, and a schema (relations + their index sets);
//! * [`SchemaGraph`] — the directed graph over relations whose edges encode
//!   key/foreign-key relationships (paper Definition 1–3), the input to
//!   Synergy's candidate-view generation;
//! * [`company`] — the running Company example of Figure 2, used throughout
//!   the paper (and this repository's tests) for exposition;
//! * row-key encoding helpers implementing the baseline transformation of
//!   §II-D (row key = delimited concatenation of primary-key values).

pub mod company;
mod graph;
pub mod intern;
mod keys;
mod row;
mod schema;
mod value;

pub use graph::{GraphEdge, SchemaGraph};
pub use intern::Symbol;
pub use keys::{encode_key, KEY_DELIMITER};
pub use row::Row;
pub use schema::{ForeignKey, Index, Relation, Schema};
pub use value::Value;
