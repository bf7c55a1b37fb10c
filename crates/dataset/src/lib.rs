//! `ipa-dataset` — record-based datasets for interactive parallel analysis.
//!
//! The IPA framework targets datasets that are "record or event based" where
//! "the same analysis is to be performed on each event" and "the analysis
//! results can be logically merged" (paper §1). This crate provides:
//!
//! * a uniform record model ([`AnyRecord`]) spanning the paper's three
//!   motivating domains — particle-collider events, DNA sequencing reads,
//!   and stock trading records,
//! * a compact length-prefixed binary codec ([`codec`]) standing in for the
//!   experiment's LCIO-style files,
//! * synthetic generators ([`generator`]) that replace the unavailable
//!   Linear-Collider simulation data with statistically controlled
//!   equivalents (a Higgs-like resonance over continuum background),
//! * the [`splitter`] that cuts a dataset into approximately equal parts for
//!   the analysis engines, and the inverse check used in tests,
//! * the [`columnar`] transcode that re-lays staged parts out, a chunk at
//!   a time as engines first read them, as typed columns with validity
//!   bitmaps so engine fills autovectorize.
//!
//! Datasets carry a [`DatasetDescriptor`] (identifier, kind, record count,
//! byte size) — the unit the catalog/locator services reason about.

#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod columnar;
pub mod dataset;
pub mod dna;
pub mod error;
pub mod event;
pub mod generator;
pub mod record;
pub mod splitter;
pub mod stream;
pub mod trade;

pub use batch::{RecordBatch, RecordHandle};
pub use codec::{decode_dataset, encode_dataset, DATASET_MAGIC, FORMAT_VERSION};
pub use columnar::{
    Column, ColumnBatch, ColumnChunk, ColumnData, DataLayout, PartColumns, COLUMN_CHUNK,
};
pub use dataset::{Dataset, DatasetDescriptor, DatasetId, DatasetKind};
pub use dna::DnaRead;
pub use error::DatasetError;
pub use event::{CollisionEvent, FourVector, Particle};
pub use generator::{
    generate_dataset, DnaGeneratorConfig, EventGeneratorConfig, GeneratorConfig,
    TradeGeneratorConfig,
};
pub use record::{AnyRecord, FieldValue, RecordFields};
pub use splitter::{
    plan_chunks, plan_even, plan_records, reassemble, split_chunks, split_dataset, split_even,
    split_records, SplitPlan,
};
pub use stream::{split_stream, StreamReader, StreamWriter};
pub use trade::TradeRecord;
