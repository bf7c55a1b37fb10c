//! Datasets and their descriptors.
//!
//! A [`Dataset`] is a homogeneous, ordered collection of records together
//! with the [`DatasetDescriptor`] the catalog/locator layer trades in: a
//! stable identifier, a human name, a kind, the record count, and the byte
//! size (the quantity `X` of the paper's cost equations).

use serde::{Deserialize, Serialize};

use crate::batch::RecordBatch;
use crate::codec::{decode_dataset, encode_dataset, encoded_record_size};
use crate::error::DatasetError;
use crate::record::AnyRecord;

/// Stable dataset identifier (the catalog's "pointer to the actual data").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DatasetId(pub String);

impl DatasetId {
    /// Wrap a string id.
    pub fn new(s: impl Into<String>) -> Self {
        DatasetId(s.into())
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Which domain a dataset's records belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Collider-physics events.
    Event,
    /// DNA sequencing reads.
    Dna,
    /// Stock trades.
    Trade,
}

impl DatasetKind {
    /// Kind of one record.
    pub fn of(record: &AnyRecord) -> DatasetKind {
        match record {
            AnyRecord::Event(_) => DatasetKind::Event,
            AnyRecord::Dna(_) => DatasetKind::Dna,
            AnyRecord::Trade(_) => DatasetKind::Trade,
        }
    }
}

/// Catalog-level description of a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetDescriptor {
    /// Stable identifier.
    pub id: DatasetId,
    /// Human-readable name.
    pub name: String,
    /// Record domain.
    pub kind: DatasetKind,
    /// Number of records.
    pub records: u64,
    /// Encoded size in bytes (header + payload).
    pub size_bytes: u64,
}

impl DatasetDescriptor {
    /// Encoded size in (decimal) megabytes — the `X` of the paper's
    /// equations.
    pub fn size_mb(&self) -> f64 {
        self.size_bytes as f64 / 1.0e6
    }
}

/// An in-memory dataset: descriptor + records.
///
/// The records are a shared [`RecordBatch`], so cloning a dataset and
/// taking a [`Dataset::range_view`] of it copy no record: every clone,
/// view and staged part of a published dataset points into the one
/// allocation made when it was built.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Catalog descriptor (kept consistent with `records` by construction).
    pub descriptor: DatasetDescriptor,
    /// The records, in dataset order.
    pub records: RecordBatch,
}

/// Byte size of the codec header.
const HEADER_BYTES: u64 = 8 + 1 + 1 + 8;

impl Dataset {
    /// Build a dataset from records, computing the descriptor.
    ///
    /// # Panics
    /// Panics if records are not homogeneous in kind.
    pub fn from_records(
        id: impl Into<String>,
        name: impl Into<String>,
        records: Vec<AnyRecord>,
    ) -> Self {
        let kind = records
            .first()
            .map(DatasetKind::of)
            .unwrap_or(DatasetKind::Event);
        assert!(
            records.iter().all(|r| DatasetKind::of(r) == kind),
            "dataset records must be homogeneous"
        );
        Dataset::describe(id.into(), name.into(), kind, RecordBatch::new(records))
    }

    /// Size up `records` (already known to be all of `kind`) and attach
    /// the descriptor.
    fn describe(id: String, name: String, kind: DatasetKind, records: RecordBatch) -> Self {
        let payload: u64 = records.iter().map(|r| encoded_record_size(r) as u64).sum();
        Dataset {
            descriptor: DatasetDescriptor {
                id: DatasetId::new(id),
                name,
                kind,
                records: records.len() as u64,
                size_bytes: HEADER_BYTES + payload,
            },
            records,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True for an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The contiguous `[first, last)` record range as a dataset of its own
    /// under `id` (locator-style `"<base>@<first>..<last>"` views), with a
    /// fresh descriptor sized to the slice. The view shares this dataset's
    /// records; only their encoded sizes are walked. Returns `None` when
    /// the range does not fit.
    pub fn range_view(&self, id: impl Into<String>, first: usize, last: usize) -> Option<Dataset> {
        if first > last || last > self.records.len() {
            return None;
        }
        Some(Dataset::describe(
            id.into(),
            format!("{} [{first}..{last})", self.descriptor.name),
            self.descriptor.kind,
            self.records.slice(first..last),
        ))
    }

    /// Encode to the binary format.
    pub fn encode(&self) -> Vec<u8> {
        encode_dataset(&self.records)
    }

    /// Decode from the binary format, recomputing the descriptor.
    pub fn decode(
        id: impl Into<String>,
        name: impl Into<String>,
        bytes: &[u8],
    ) -> Result<Self, DatasetError> {
        let records = decode_dataset(bytes)?;
        Ok(Dataset::from_records(id, name, records))
    }

    /// Write the encoded dataset to a file.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Read a dataset file.
    pub fn read_file(
        id: impl Into<String>,
        name: impl Into<String>,
        path: &std::path::Path,
    ) -> std::io::Result<Result<Self, DatasetError>> {
        let bytes = std::fs::read(path)?;
        Ok(Dataset::decode(id, name, &bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CollisionEvent;

    fn events(n: u64) -> Vec<AnyRecord> {
        (0..n)
            .map(|i| {
                AnyRecord::Event(CollisionEvent {
                    event_id: i,
                    run: 0,
                    sqrt_s: 500.0,
                    is_signal: false,
                    particles: vec![],
                })
            })
            .collect()
    }

    #[test]
    fn descriptor_matches_encoding() {
        let ds = Dataset::from_records("lc-001", "LC sample", events(10));
        assert_eq!(ds.descriptor.records, 10);
        assert_eq!(ds.descriptor.size_bytes as usize, ds.encode().len());
        assert_eq!(ds.descriptor.kind, DatasetKind::Event);
    }

    #[test]
    fn encode_decode_preserves_dataset() {
        let ds = Dataset::from_records("x", "X", events(4));
        let back = Dataset::decode("x", "X", &ds.encode()).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn range_view_slices_and_resizes() {
        let ds = Dataset::from_records("x", "X", events(10));
        let view = ds.range_view("x@2..7", 2, 7).unwrap();
        assert_eq!(view.descriptor.id, DatasetId::new("x@2..7"));
        assert_eq!(view.descriptor.records, 5);
        assert!(view.descriptor.size_bytes < ds.descriptor.size_bytes);
        assert_eq!(view.records[..], ds.records[2..7]);
        assert!(
            std::ptr::eq(&view.records[0], &ds.records[2]),
            "a range view shares the base dataset's records"
        );
        assert!(
            std::ptr::eq(&ds.clone().records[0], &ds.records[0]),
            "so does a clone"
        );
        assert_eq!(
            view.descriptor.size_bytes as usize,
            view.encode().len(),
            "the view's descriptor is sized to the slice"
        );
        assert!(view.descriptor.name.contains("[2..7)"));
        // Degenerate empty view is fine; out-of-range / inverted are not.
        assert_eq!(ds.range_view("x@3..3", 3, 3).unwrap().len(), 0);
        assert!(ds.range_view("x@0..11", 0, 11).is_none());
        assert!(ds.range_view("x@7..2", 7, 2).is_none());
    }

    #[test]
    fn size_mb_is_decimal_megabytes() {
        let mut ds = Dataset::from_records("x", "X", events(1));
        ds.descriptor.size_bytes = 471_000_000;
        assert!((ds.descriptor.size_mb() - 471.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "homogeneous")]
    fn mixed_kinds_rejected() {
        let mut recs = events(1);
        recs.push(AnyRecord::Dna(crate::dna::DnaRead {
            read_id: 0,
            sample: 0,
            bases: "A".into(),
            quality: 0.0,
        }));
        Dataset::from_records("x", "X", recs);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ipa_dataset_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.ipadset");
        let ds = Dataset::from_records("f", "F", events(3));
        ds.write_file(&path).unwrap();
        let back = Dataset::read_file("f", "F", &path).unwrap().unwrap();
        assert_eq!(ds, back);
        std::fs::remove_file(&path).ok();
    }
}
