//! Columnar (structure-of-arrays) transcode of record batches.
//!
//! Engines iterate staged parts record by record, but the per-record path
//! pays a name-keyed `FieldValue` lookup — and for derived observables like
//! `bb_mass` a full recomputation — on every access. A [`ColumnBatch`]
//! transcodes a homogeneous `AnyRecord` slice once into typed columns
//! (`Vec<f64>` / `Vec<i64>` / `Vec<bool>` / shared `Arc<str>`), with a
//! validity bitmap marking [`FieldValue::Missing`] slots, so the hot loop
//! reads contiguous memory and bulk fills autovectorize.
//!
//! Bit-identity is by contract: every cell comes from
//! [`RecordFields::for_each_field`], which yields exactly what
//! [`RecordFields::field`] returns name by name (property-tested for every
//! record kind), so a per-record read through [`ColumnBatch::field_at`]
//! returns exactly the `FieldValue` the row path would have produced —
//! including `Missing` patterns and the original f64 bit patterns of
//! derived quantities.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::batch::RecordBatch;
use crate::record::{AnyRecord, FieldValue, RecordFields};

/// Which in-memory layout the data plane hands to engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum DataLayout {
    /// Rows: engines read `AnyRecord`s directly (the differential oracle).
    Row,
    /// Columns: staging wraps each part in a [`PartColumns`], engines
    /// transcode it chunk by chunk as they first read it and take the
    /// vectorized path.
    Columnar,
}

impl DataLayout {
    /// Read the layout from `IPA_DATA_LAYOUT` (`row` | `columnar`),
    /// defaulting to [`DataLayout::Columnar`].
    pub fn from_env() -> Self {
        match std::env::var("IPA_DATA_LAYOUT") {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "row" | "rows" => DataLayout::Row,
                "columnar" | "column" | "columns" => DataLayout::Columnar,
                _ => DataLayout::Columnar,
            },
            Err(_) => DataLayout::Columnar,
        }
    }
}

impl std::fmt::Display for DataLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataLayout::Row => write!(f, "row"),
            DataLayout::Columnar => write!(f, "columnar"),
        }
    }
}

/// Typed storage for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Numeric (`FieldValue::Num`) cells.
    F64(Vec<f64>),
    /// Integer (`FieldValue::Int`) cells.
    I64(Vec<i64>),
    /// Boolean (`FieldValue::Bool`) cells.
    Bool(Vec<bool>),
    /// String (`FieldValue::Str`) cells; each slot shares the record's
    /// buffer, so the transcode copies pointers, not bytes.
    Str(Vec<Arc<str>>),
}

/// One field of a [`ColumnBatch`]: typed data plus an optional validity
/// bitmap (absent when every cell is present).
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    /// Bit `i` set ⇔ row `i` holds a concrete value; `None` ⇔ all valid.
    validity: Option<Vec<u64>>,
}

impl Column {
    /// Typed cell storage. Invalid (missing) slots hold a type default and
    /// must be masked through [`Column::is_valid`].
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Validity bitmap words (LSB-first within each word); `None` means
    /// every row is valid.
    pub fn validity(&self) -> Option<&[u64]> {
        self.validity.as_deref()
    }

    /// True when every cell of the column is present.
    pub fn all_valid(&self) -> bool {
        self.validity.is_none()
    }

    /// True when row `row` holds a concrete value.
    #[inline]
    pub fn is_valid(&self, row: usize) -> bool {
        match &self.validity {
            None => true,
            Some(words) => words[row >> 6] & (1u64 << (row & 63)) != 0,
        }
    }

    /// The f64 cells, if this is a numeric column.
    pub fn f64s(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The i64 cells, if this is an integer column.
    pub fn i64s(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The bool cells, if this is a boolean column.
    pub fn bools(&self) -> Option<&[bool]> {
        match &self.data {
            ColumnData::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The string cells, if this is a string column.
    pub fn strs(&self) -> Option<&[Arc<str>]> {
        match &self.data {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Approximate heap footprint of the column in bytes.
    pub fn heap_bytes(&self) -> usize {
        let data = match &self.data {
            ColumnData::F64(v) => v.len() * 8,
            ColumnData::I64(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            // Pointers only: the string bytes stay owned by the records.
            ColumnData::Str(v) => v.len() * std::mem::size_of::<Arc<str>>(),
        };
        data + self.validity.as_ref().map_or(0, |w| w.len() * 8)
    }
}

/// A homogeneous record slice transcoded to columnar layout.
///
/// Immutable after construction; a part's chunks hold theirs as
/// `Arc<ColumnBatch>` (see [`PartColumns`]) so re-select and rewind reuse
/// the transcode with zero copies.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    kind: &'static str,
    names: &'static [&'static str],
    len: usize,
    columns: Vec<Column>,
}

impl ColumnBatch {
    /// Transcode a record slice. Returns `None` when the slice is empty,
    /// of mixed record kinds, or a field changes concrete type mid-slice —
    /// callers fall back to the row path in those cases.
    pub fn from_records(records: &[AnyRecord]) -> Option<ColumnBatch> {
        let first = records.first()?;
        let kind = first.kind();
        let names = first.field_names();
        let mut builders: Vec<ColumnBuilder> = names
            .iter()
            .map(|_| ColumnBuilder::new(records.len()))
            .collect();
        for rec in records {
            if rec.kind() != kind {
                return None;
            }
            // One call per record: the fields arrive in `names` order.
            let mut columns = builders.iter_mut();
            let mut type_clash = false;
            rec.for_each_field(|value| {
                let builder = columns.next().expect("one value per field name");
                type_clash |= !builder.push(value);
            });
            if type_clash {
                return None;
            }
        }
        Some(ColumnBatch {
            kind,
            names,
            len: records.len(),
            columns: builders.into_iter().map(ColumnBuilder::finish).collect(),
        })
    }

    /// Record kind shared by every row (`"event"`, `"dna"`, `"trade"`).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Field names, in column order.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows (never produced by
    /// [`ColumnBatch::from_records`], which rejects empty slices).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resolve a field name to its column index; `None` mirrors the row
    /// path's "unknown field for this record kind".
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| *n == name)
    }

    /// The column at `col` (in [`ColumnBatch::names`] order).
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// Read one cell back as the exact `FieldValue` the row path produces.
    #[inline]
    pub fn field_at(&self, col: usize, row: usize) -> FieldValue {
        let c = &self.columns[col];
        if !c.is_valid(row) {
            return FieldValue::Missing;
        }
        match &c.data {
            ColumnData::F64(v) => FieldValue::Num(v[row]),
            ColumnData::I64(v) => FieldValue::Int(v[row]),
            ColumnData::Bool(v) => FieldValue::Bool(v[row]),
            ColumnData::Str(v) => FieldValue::Str(v[row].clone()),
        }
    }

    /// Name-keyed cell read, mirroring [`RecordFields::field`] semantics
    /// (`None` = unknown field, `Some(Missing)` = known but absent).
    pub fn field(&self, name: &str, row: usize) -> Option<FieldValue> {
        self.column_index(name).map(|c| self.field_at(c, row))
    }

    /// Approximate heap footprint of the transcode in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(Column::heap_bytes).sum()
    }
}

/// Rows per lazily built chunk of a part's transcode. About 2–3 ms of
/// [`ColumnBatch::from_records`] at the measured 3–4 M records/s, so an
/// engine's first publish lands within a few poll periods of `run()`; small
/// enough that two engines never wait long on one cell, large enough that
/// the per-chunk builders and bindings vanish against the walk. A constant,
/// not a knob: no caller has a reason to want another value.
pub const COLUMN_CHUNK: usize = 8192;

/// One [`COLUMN_CHUNK`]-row piece of a part, transcoded.
pub struct ColumnChunk {
    /// The chunk's rows. One long-lived view per chunk, so identity-keyed
    /// bindings ([`RecordBatch::same_view`]) survive from batch to batch.
    pub records: RecordBatch,
    /// Transcode of `records`; `None` when they do not transcode (mixed
    /// record kinds or a field changing type) and the row path applies.
    pub columns: Option<Arc<ColumnBatch>>,
}

/// The columnar transcode of one staged part, built a chunk at a time by
/// whoever first reads the chunk and shared by everyone after.
///
/// Constructing one reads no record. The split cache, the session and every
/// engine the part is ever assigned to (re-run, steal, speculative
/// duplicate) hold the same `Arc<PartColumns>`, so a chunk is transcoded at
/// most once per cut however many times the part is processed.
pub struct PartColumns {
    records: RecordBatch,
    cells: Vec<OnceLock<ColumnChunk>>,
}

impl PartColumns {
    /// Wrap a part's records; no chunk is built yet.
    pub fn new(records: RecordBatch) -> Self {
        let cells = (0..records.len().div_ceil(COLUMN_CHUNK))
            .map(|_| OnceLock::new())
            .collect();
        PartColumns { records, cells }
    }

    /// Number of chunks the part divides into (`⌈len / COLUMN_CHUNK⌉`).
    pub fn chunks(&self) -> usize {
        self.cells.len()
    }

    /// Number of chunks built so far.
    pub fn built(&self) -> usize {
        self.cells.iter().filter(|c| c.get().is_some()).count()
    }

    /// The chunk holding part row `row` and the part row it starts at,
    /// transcoding it first if nobody has. Concurrent callers of one chunk
    /// block on a single build; the same `&ColumnChunk` comes back for as
    /// long as the `PartColumns` lives.
    ///
    /// # Panics
    /// Panics when `row` is outside the part.
    pub fn chunk_for(&self, row: usize) -> (usize, &ColumnChunk) {
        assert!(
            row < self.records.len(),
            "row {row} outside a part of {} records",
            self.records.len()
        );
        let start = row - row % COLUMN_CHUNK;
        let chunk = self.cells[row / COLUMN_CHUNK].get_or_init(|| {
            let end = (start + COLUMN_CHUNK).min(self.records.len());
            let records = self.records.slice(start..end);
            let columns = ColumnBatch::from_records(&records).map(Arc::new);
            ColumnChunk { records, columns }
        });
        (start, chunk)
    }
}

impl std::fmt::Debug for PartColumns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartColumns")
            .field("records", &self.records.len())
            .field("chunks", &self.chunks())
            .field("built", &self.built())
            .finish()
    }
}

/// Incremental single-column builder. The column type is pinned by the
/// first concrete value; leading `Missing` slots are back-filled with the
/// type default once the type is known.
struct ColumnBuilder {
    data: BuilderData,
    validity: Vec<u64>,
    any_missing: bool,
    rows: usize,
    cap: usize,
    /// Filler for `Missing` slots of a string column, allocated once.
    empty: Option<Arc<str>>,
}

/// The builder's shared filler string, allocated on first use.
fn empty_str(slot: &mut Option<Arc<str>>) -> Arc<str> {
    slot.get_or_insert_with(|| Arc::from("")).clone()
}

enum BuilderData {
    /// No concrete value seen yet; payload counts the missing slots.
    Untyped(usize),
    F64(Vec<f64>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
    Str(Vec<Arc<str>>),
}

impl ColumnBuilder {
    fn new(cap: usize) -> Self {
        ColumnBuilder {
            data: BuilderData::Untyped(0),
            validity: vec![0u64; cap.div_ceil(64)],
            any_missing: false,
            rows: 0,
            cap,
            empty: None,
        }
    }

    /// Append one cell; `false` signals a concrete-type clash (the caller
    /// abandons the transcode).
    fn push(&mut self, value: FieldValue) -> bool {
        let row = self.rows;
        self.rows += 1;
        if matches!(value, FieldValue::Missing) {
            self.any_missing = true;
            match &mut self.data {
                BuilderData::Untyped(n) => *n += 1,
                BuilderData::F64(v) => v.push(0.0),
                BuilderData::I64(v) => v.push(0),
                BuilderData::Bool(v) => v.push(false),
                BuilderData::Str(v) => v.push(empty_str(&mut self.empty)),
            }
            return true;
        }
        self.validity[row >> 6] |= 1u64 << (row & 63);
        if let BuilderData::Untyped(n) = self.data {
            let mut typed = match &value {
                FieldValue::Num(_) => BuilderData::F64(Vec::with_capacity(self.cap)),
                FieldValue::Int(_) => BuilderData::I64(Vec::with_capacity(self.cap)),
                FieldValue::Bool(_) => BuilderData::Bool(Vec::with_capacity(self.cap)),
                FieldValue::Str(_) => BuilderData::Str(Vec::with_capacity(self.cap)),
                FieldValue::Missing => unreachable!("handled above"),
            };
            match &mut typed {
                BuilderData::F64(v) => v.resize(n, 0.0),
                BuilderData::I64(v) => v.resize(n, 0),
                BuilderData::Bool(v) => v.resize(n, false),
                BuilderData::Str(v) => v.resize(n, empty_str(&mut self.empty)),
                BuilderData::Untyped(_) => unreachable!(),
            }
            self.data = typed;
        }
        match (&mut self.data, value) {
            (BuilderData::F64(v), FieldValue::Num(x)) => v.push(x),
            (BuilderData::I64(v), FieldValue::Int(x)) => v.push(x),
            (BuilderData::Bool(v), FieldValue::Bool(x)) => v.push(x),
            (BuilderData::Str(v), FieldValue::Str(x)) => v.push(x),
            _ => return false,
        }
        true
    }

    fn finish(self) -> Column {
        let data = match self.data {
            // Every cell missing: the cells are never read, any type works.
            BuilderData::Untyped(n) => ColumnData::F64(vec![0.0; n]),
            BuilderData::F64(v) => ColumnData::F64(v),
            BuilderData::I64(v) => ColumnData::I64(v),
            BuilderData::Bool(v) => ColumnData::Bool(v),
            BuilderData::Str(v) => ColumnData::Str(v),
        };
        Column {
            data,
            validity: self.any_missing.then_some(self.validity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::DnaRead;
    use crate::event::{CollisionEvent, FourVector, Particle};
    use crate::trade::TradeRecord;

    fn events(n: u64) -> Vec<AnyRecord> {
        (0..n)
            .map(|i| {
                let particles = if i % 3 == 0 {
                    // Two b-tags → bb_mass present.
                    vec![
                        Particle::new(
                            5,
                            -1.0 / 3.0,
                            FourVector::from_mass_momentum(4.8, 40.0 + i as f64, 0.0, 5.0),
                        ),
                        Particle::new(
                            -5,
                            1.0 / 3.0,
                            FourVector::from_mass_momentum(4.8, -35.0, 8.0, -5.0),
                        ),
                    ]
                } else if i % 3 == 1 {
                    // One particle → bb_mass missing, lead_pt present.
                    vec![Particle::new(22, 0.0, FourVector::new(12.0, 3.0, 4.0, 0.0))]
                } else {
                    // No particles → bb_mass and lead_pt both missing.
                    Vec::new()
                };
                AnyRecord::Event(CollisionEvent {
                    event_id: i,
                    run: 1,
                    sqrt_s: 500.0,
                    is_signal: i % 2 == 0,
                    particles,
                })
            })
            .collect()
    }

    #[test]
    fn round_trip_is_bit_identical_for_events() {
        let recs = events(130); // crosses a validity-word boundary
        let batch = ColumnBatch::from_records(&recs).unwrap();
        assert_eq!(batch.kind(), "event");
        assert_eq!(batch.len(), 130);
        for (row, rec) in recs.iter().enumerate() {
            for name in rec.field_names() {
                assert_eq!(batch.field(name, row), rec.field(name), "{name}[{row}]");
            }
        }
        assert_eq!(batch.field("bogus", 0), None);
    }

    #[test]
    fn round_trip_dna_and_trade() {
        let dna: Vec<AnyRecord> = (0..5)
            .map(|i| {
                AnyRecord::Dna(DnaRead {
                    read_id: i,
                    sample: (i % 3) as u32,
                    bases: "ACGT".repeat(i as usize + 1).into(),
                    quality: 30.0 + i as f32,
                })
            })
            .collect();
        let batch = ColumnBatch::from_records(&dna).unwrap();
        for (row, rec) in dna.iter().enumerate() {
            for name in rec.field_names() {
                assert_eq!(batch.field(name, row), rec.field(name), "{name}[{row}]");
            }
        }

        let trades: Vec<AnyRecord> = (0..5)
            .map(|i| {
                AnyRecord::Trade(TradeRecord {
                    trade_id: i,
                    timestamp_ms: i * 10,
                    symbol: "TXC".into(),
                    price: 100.0 + i as f64,
                    volume: 10 + i as u32,
                    buyer_initiated: i % 2 == 0,
                })
            })
            .collect();
        let batch = ColumnBatch::from_records(&trades).unwrap();
        for (row, rec) in trades.iter().enumerate() {
            for name in rec.field_names() {
                assert_eq!(batch.field(name, row), rec.field(name), "{name}[{row}]");
            }
        }
    }

    #[test]
    fn string_columns_share_the_record_buffer() {
        let read = DnaRead {
            read_id: 0,
            sample: 0,
            bases: "ACGTACGT".into(),
            quality: 30.0,
        };
        let bases = read.bases.clone();
        let recs = vec![AnyRecord::Dna(read)];
        let batch = ColumnBatch::from_records(&recs).unwrap();
        let col = batch.column(batch.column_index("bases").unwrap());
        assert!(Arc::ptr_eq(&col.strs().unwrap()[0], &bases));
    }

    #[test]
    fn missing_slots_are_masked_not_stored() {
        let recs = events(6);
        let batch = ColumnBatch::from_records(&recs).unwrap();
        let bb = batch.column(batch.column_index("bb_mass").unwrap());
        assert!(!bb.all_valid());
        assert!(bb.is_valid(0) && bb.is_valid(3));
        for row in [1, 2, 4, 5] {
            assert!(!bb.is_valid(row));
            assert_eq!(batch.field("bb_mass", row), Some(FieldValue::Missing));
        }
        // Fully-present columns drop the bitmap entirely.
        let e = batch.column(batch.column_index("event_id").unwrap());
        assert!(e.all_valid() && e.validity().is_none());
    }

    #[test]
    fn empty_and_mixed_slices_fall_back() {
        assert!(ColumnBatch::from_records(&[]).is_none());
        let mut recs = events(1);
        recs.push(AnyRecord::Dna(DnaRead {
            read_id: 0,
            sample: 0,
            bases: "A".into(),
            quality: 0.0,
        }));
        assert!(ColumnBatch::from_records(&recs).is_none());
    }

    #[test]
    fn all_missing_column_reads_back_missing() {
        let recs = events(3); // rows 1, 2 have no bb_mass; row 0 does
        let only_missing: Vec<AnyRecord> = recs[1..].to_vec();
        let batch = ColumnBatch::from_records(&only_missing).unwrap();
        for row in 0..2 {
            assert_eq!(batch.field("bb_mass", row), Some(FieldValue::Missing));
        }
    }

    /// `n` particle-free events: cheap enough to build several chunks of.
    fn bare_events(n: usize) -> RecordBatch {
        RecordBatch::new(
            (0..n as u64)
                .map(|i| {
                    AnyRecord::Event(CollisionEvent {
                        event_id: i,
                        run: 1,
                        sqrt_s: 500.0,
                        is_signal: i % 2 == 0,
                        particles: Vec::new(),
                    })
                })
                .collect(),
        )
    }

    #[test]
    fn part_columns_divide_into_chunks_and_build_only_what_is_read() {
        for len in [
            1,
            COLUMN_CHUNK - 1,
            COLUMN_CHUNK,
            COLUMN_CHUNK + 1,
            3 * COLUMN_CHUNK + 5,
        ] {
            let part = bare_events(len);
            let cols = PartColumns::new(part.clone());
            assert_eq!(cols.chunks(), len.div_ceil(COLUMN_CHUNK), "len {len}");
            assert_eq!(cols.built(), 0);
            // Reading the last row builds the last chunk and no other.
            let (c0, chunk) = cols.chunk_for(len - 1);
            assert_eq!(c0, (len - 1) / COLUMN_CHUNK * COLUMN_CHUNK);
            assert_eq!(cols.built(), 1);
            assert!(chunk.records.same_view(&part.slice(c0..len)));
            let built = chunk.columns.as_ref().expect("events transcode");
            assert_eq!(built.len(), len - c0);
            // Every row maps to its chunk, and to the same chunk object on
            // every call (the VM's column binding is keyed on it).
            for row in (0..len).step_by(1021).chain([len - 1]) {
                let (start, first) = cols.chunk_for(row);
                assert_eq!(start, row / COLUMN_CHUNK * COLUMN_CHUNK);
                let end = (start + COLUMN_CHUNK).min(len);
                assert!(first.records.same_view(&part.slice(start..end)));
                assert!(std::ptr::eq(first, cols.chunk_for(row).1));
                assert_eq!(
                    first.columns.as_deref(),
                    ColumnBatch::from_records(&part[start..end]).as_ref()
                );
            }
            assert_eq!(cols.built(), cols.chunks());
        }
        assert_eq!(PartColumns::new(bare_events(0)).chunks(), 0);
    }

    #[test]
    fn a_chunk_that_cannot_transcode_does_not_spoil_its_neighbours() {
        let mut recs: Vec<AnyRecord> = bare_events(3 * COLUMN_CHUNK).to_vec();
        recs[COLUMN_CHUNK + 7] = AnyRecord::Dna(DnaRead {
            read_id: 0,
            sample: 0,
            bases: "ACGT".into(),
            quality: 30.0,
        });
        let cols = PartColumns::new(RecordBatch::new(recs));
        assert!(cols.chunk_for(0).1.columns.is_some());
        let (c0, mixed) = cols.chunk_for(COLUMN_CHUNK + 7);
        assert_eq!(c0, COLUMN_CHUNK);
        assert!(mixed.columns.is_none());
        assert_eq!(mixed.records.len(), COLUMN_CHUNK);
        assert!(cols.chunk_for(2 * COLUMN_CHUNK).1.columns.is_some());
        assert_eq!(cols.built(), 3);
    }

    #[test]
    fn racing_readers_of_one_chunk_share_one_build() {
        let cols = PartColumns::new(bare_events(COLUMN_CHUNK + 100));
        let barrier = std::sync::Barrier::new(2);
        let read = || {
            barrier.wait();
            Arc::clone(cols.chunk_for(5).1.columns.as_ref().unwrap())
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(read);
            (read(), other.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cols.built(), 1);
    }

    #[test]
    fn layout_env_parsing_defaults_to_columnar() {
        // Exercise the string mapping without touching process env.
        assert_eq!(DataLayout::Columnar.to_string(), "columnar");
        assert_eq!(DataLayout::Row.to_string(), "row");
        let json = serde_json::to_string(&DataLayout::Row).unwrap();
        assert_eq!(json, "\"row\"");
        let back: DataLayout = serde_json::from_str("\"columnar\"").unwrap();
        assert_eq!(back, DataLayout::Columnar);
    }
}
