//! Dataset splitting.
//!
//! The paper's Splitter service "will import the dataset from the actual
//! location and split it into a pre-configured number of approximately equal
//! parts" (§3.4), one per analysis engine. Three policies are provided:
//!
//! * [`plan_even`] — equal *record counts* (±1 record),
//! * [`plan_records`] — equal *byte sizes* (greedy, bounded imbalance),
//!   better when record sizes vary wildly (e.g. variable-length DNA reads),
//! * [`plan_chunks`] — [`plan_even`] clamped so no part is empty
//!   (micro-parts for pull-based scheduling).
//!
//! Splitting is *planning*: a policy reads the records' encoded sizes and
//! returns a [`SplitPlan`] of record ranges; nothing is copied. Staging
//! turns a plan into parts with [`SplitPlan::views`], which are
//! [`RecordBatch`] ranges over the dataset's own records. The
//! [`split_even`] / [`split_records`] / [`split_chunks`] wrappers run the
//! same plans and copy each range into a `Vec` of its own, for callers
//! that want standalone parts.
//!
//! All policies preserve record order (part `i` holds a contiguous range
//! that comes before part `i+1`'s) and form an exact partition — no record
//! is lost or duplicated. Those invariants are property-tested.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::batch::RecordBatch;
use crate::codec::encoded_record_size;
use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::record::AnyRecord;

/// Description of how a dataset was split (returned alongside the parts so
/// the session can report staging progress per part).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitPlan {
    /// Number of parts produced (== parts requested, possibly with empty
    /// tails when there are fewer records than parts).
    pub parts: usize,
    /// `(first_record_index, record_count, byte_size)` per part.
    pub ranges: Vec<(u64, u64, u64)>,
}

impl SplitPlan {
    /// Largest part byte size divided by the *mean* non-empty part byte
    /// size; 1.0 means perfectly balanced. Returns 1.0 when fewer than two
    /// non-empty parts exist.
    ///
    /// Using the mean (rather than the smallest part) keeps the metric
    /// meaningful when one tail part holds a single small record: a split
    /// whose parts are `[5000, 5000, 10]` bytes is reported as ~1.5 (the
    /// largest part is 1.5× the average work), not 500.
    pub fn imbalance(&self) -> f64 {
        let sizes: Vec<u64> = self
            .ranges
            .iter()
            .map(|&(_, _, b)| b)
            .filter(|&b| b > 0)
            .collect();
        if sizes.len() < 2 {
            return 1.0;
        }
        let max = *sizes.iter().max().expect("non-empty") as f64;
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        max / mean
    }

    /// Record index range of part `k`.
    pub fn record_range(&self, k: usize) -> Range<usize> {
        let (first, count, _) = self.ranges[k];
        first as usize..(first + count) as usize
    }

    /// The parts as views over `records` (the batch the plan was computed
    /// on): no record is copied.
    pub fn views(&self, records: &RecordBatch) -> Vec<RecordBatch> {
        (0..self.ranges.len())
            .map(|k| records.slice(self.record_range(k)))
            .collect()
    }

    /// The parts as standalone vectors, each range of `records` cloned.
    fn to_vecs(&self, records: &[AnyRecord]) -> Vec<Vec<AnyRecord>> {
        (0..self.ranges.len())
            .map(|k| records[self.record_range(k)].to_vec())
            .collect()
    }
}

/// Plan `n` parts with equal record counts (±1). The first `len % n` parts
/// get the extra record, preserving order.
pub fn plan_even(records: &[AnyRecord], n: usize) -> Result<SplitPlan, DatasetError> {
    if n == 0 {
        return Err(DatasetError::ZeroParts);
    }
    let base = records.len() / n;
    let extra = records.len() % n;
    let mut ranges = Vec::with_capacity(n);
    let mut idx = 0usize;
    for p in 0..n {
        let take = base + usize::from(p < extra);
        let slice = &records[idx..idx + take];
        let bytes: u64 = slice.iter().map(|r| encoded_record_size(r) as u64).sum();
        ranges.push((idx as u64, take as u64, bytes));
        idx += take;
    }
    debug_assert_eq!(idx, records.len());
    Ok(SplitPlan { parts: n, ranges })
}

/// Plan `n` parts targeting equal *byte* sizes while preserving order.
/// Greedy: a part is closed once it reaches the running byte target. Each
/// part's size differs from the ideal by at most the largest single
/// record; when there are more parts than records some parts are empty.
pub fn plan_records(records: &[AnyRecord], n: usize) -> Result<SplitPlan, DatasetError> {
    if n == 0 {
        return Err(DatasetError::ZeroParts);
    }
    let sizes: Vec<u64> = records
        .iter()
        .map(|r| encoded_record_size(r) as u64)
        .collect();
    let total: u64 = sizes.iter().sum();
    let mut ranges = Vec::with_capacity(n);
    let mut idx = 0usize;
    let mut consumed: u64 = 0;
    for p in 0..n {
        let start = idx;
        let mut bytes: u64 = 0;
        // Cumulative target keeps rounding drift from accumulating.
        let target = total * (p as u64 + 1) / n as u64;
        let remaining_parts = n - p - 1;
        while idx < records.len()
            && consumed + bytes < target
            // Leave at least one record for each remaining part when possible.
            && records.len() - idx > remaining_parts
        {
            bytes += sizes[idx];
            idx += 1;
        }
        // Guarantee progress if records remain but the target was already met.
        if idx == start && idx < records.len() && remaining_parts < records.len() - idx {
            bytes += sizes[idx];
            idx += 1;
        }
        consumed += bytes;
        ranges.push((start as u64, (idx - start) as u64, bytes));
    }
    debug_assert_eq!(idx, records.len());
    Ok(SplitPlan { parts: n, ranges })
}

/// Plan *micro-parts* for pull-based scheduling: `n_parts` chunks of
/// ~equal record counts, order-preserving, never producing an empty chunk.
///
/// Unlike [`plan_even`], which always plans exactly `n` parts (padding
/// with empty tails), this clamps the effective part count to
/// `max(1, min(n_parts, records.len()))` so a work queue is never staged
/// with no-op parts. An empty input yields a single empty part so the
/// session still has one part to complete.
pub fn plan_chunks(records: &[AnyRecord], n_parts: usize) -> Result<SplitPlan, DatasetError> {
    if n_parts == 0 {
        return Err(DatasetError::ZeroParts);
    }
    plan_even(records, n_parts.min(records.len()).max(1))
}

/// [`plan_even`], with each part copied out into a vector of its own.
pub fn split_even(
    records: &[AnyRecord],
    n: usize,
) -> Result<(Vec<Vec<AnyRecord>>, SplitPlan), DatasetError> {
    let plan = plan_even(records, n)?;
    Ok((plan.to_vecs(records), plan))
}

/// [`plan_records`], with each part copied out into a vector of its own.
pub fn split_records(
    records: &[AnyRecord],
    n: usize,
) -> Result<(Vec<Vec<AnyRecord>>, SplitPlan), DatasetError> {
    let plan = plan_records(records, n)?;
    Ok((plan.to_vecs(records), plan))
}

/// [`plan_chunks`], with each part copied out into a vector of its own.
pub fn split_chunks(
    records: &[AnyRecord],
    n_parts: usize,
) -> Result<(Vec<Vec<AnyRecord>>, SplitPlan), DatasetError> {
    let plan = plan_chunks(records, n_parts)?;
    Ok((plan.to_vecs(records), plan))
}

/// Reassemble parts into a single record vector (inverse of splitting,
/// used in tests and by the merge-verification harness).
pub fn reassemble(parts: &[Vec<AnyRecord>]) -> Vec<AnyRecord> {
    parts.iter().flatten().cloned().collect()
}

/// Split a [`Dataset`] into part-datasets named `<id>.partK`, each a range
/// view over `ds`'s records.
pub fn split_dataset(ds: &Dataset, n: usize) -> Result<(Vec<Dataset>, SplitPlan), DatasetError> {
    let plan = plan_records(&ds.records, n)?;
    let out = (0..n)
        .map(|k| {
            let range = plan.record_range(k);
            let mut part = ds
                .range_view(
                    format!("{}.part{k}", ds.descriptor.id),
                    range.start,
                    range.end,
                )
                .expect("a plan's ranges lie inside the records it was computed on");
            part.descriptor.name = format!("{} [part {k}/{n}]", ds.descriptor.name);
            part
        })
        .collect();
    Ok((out, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::DnaRead;
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

    fn variable_reads(n: u64) -> Vec<AnyRecord> {
        (0..n)
            .map(|i| {
                AnyRecord::Dna(DnaRead {
                    read_id: i,
                    sample: 0,
                    bases: "ACGT".repeat(1 + (i as usize * 7) % 40).into(),
                    quality: 30.0,
                })
            })
            .collect()
    }

    fn ids(parts: &[Vec<AnyRecord>]) -> Vec<u64> {
        parts.iter().flatten().map(|r| r.id()).collect()
    }

    #[test]
    fn split_even_exact_partition() {
        let recs = events(10);
        let (parts, plan) = split_even(&recs, 3).unwrap();
        assert_eq!(parts.len(), 3);
        let lens: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        assert_eq!(ids(&parts), (0..10).collect::<Vec<u64>>());
        assert_eq!(plan.ranges[0], (0, 4, plan.ranges[0].2));
    }

    #[test]
    fn split_even_more_parts_than_records() {
        let recs = events(2);
        let (parts, _) = split_even(&recs, 5).unwrap();
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 2);
        assert_eq!(ids(&parts), vec![0, 1]);
    }

    #[test]
    fn split_zero_parts_errors() {
        assert_eq!(split_even(&events(3), 0), Err(DatasetError::ZeroParts));
        assert_eq!(split_records(&events(3), 0), Err(DatasetError::ZeroParts));
    }

    #[test]
    fn split_records_preserves_order_and_partition() {
        let recs = variable_reads(57);
        for n in [1, 2, 3, 7, 16, 57, 100] {
            let (parts, plan) = split_records(&recs, n).unwrap();
            assert_eq!(parts.len(), n, "n={n}");
            assert_eq!(ids(&parts), (0..57).collect::<Vec<u64>>(), "n={n}");
            let total: u64 = plan.ranges.iter().map(|r| r.2).sum();
            let expect: u64 = recs.iter().map(|r| encoded_record_size(r) as u64).sum();
            assert_eq!(total, expect, "n={n}");
        }
    }

    #[test]
    fn split_records_is_byte_balanced() {
        let recs = variable_reads(400);
        let (_, plan) = split_records(&recs, 8).unwrap();
        // Bounded imbalance: with ~50 records per part, sizes must be close.
        assert!(plan.imbalance() < 1.5, "imbalance {}", plan.imbalance());
    }

    #[test]
    fn byte_split_beats_record_split_on_skewed_data() {
        // First records are huge, later ones tiny.
        let mut recs = Vec::new();
        for i in 0..20u64 {
            recs.push(AnyRecord::Dna(DnaRead {
                read_id: i,
                sample: 0,
                bases: "A".repeat(if i < 4 { 10_000 } else { 10 }).into(),
                quality: 1.0,
            }));
        }
        let (_, even_plan) = split_even(&recs, 4).unwrap();
        let (_, byte_plan) = split_records(&recs, 4).unwrap();
        assert!(byte_plan.imbalance() < even_plan.imbalance());
    }

    #[test]
    fn imbalance_is_max_over_mean_not_max_over_min() {
        // One tiny tail part must not explode the metric: sizes are
        // [5000, 5000, 10] bytes → max/mean ≈ 1.5, where max/min = 500.
        let plan = SplitPlan {
            parts: 3,
            ranges: vec![(0, 5, 5000), (5, 5, 5000), (10, 1, 10)],
        };
        let imb = plan.imbalance();
        assert!(imb < 2.0, "imbalance {imb} should be max/mean, not max/min");
        assert!((imb - 5000.0 / (10010.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn split_chunks_clamps_to_record_count() {
        let recs = events(3);
        let (parts, plan) = split_chunks(&recs, 10).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(plan.parts, 3);
        assert!(parts.iter().all(|p| p.len() == 1));
        assert_eq!(ids(&parts), vec![0, 1, 2]);
    }

    #[test]
    fn split_chunks_partitions_exactly() {
        let recs = events(1000);
        let (parts, plan) = split_chunks(&recs, 16).unwrap();
        assert_eq!(parts.len(), 16);
        assert_eq!(plan.parts, 16);
        assert!(parts.iter().all(|p| !p.is_empty()));
        assert_eq!(ids(&parts), (0..1000).collect::<Vec<u64>>());
        // ±1 record per chunk.
        let lens: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert!(lens.iter().all(|&l| l == 62 || l == 63), "{lens:?}");
    }

    #[test]
    fn split_chunks_empty_input_yields_one_empty_part() {
        let (parts, plan) = split_chunks(&[], 8).unwrap();
        assert_eq!(parts.len(), 1);
        assert!(parts[0].is_empty());
        assert_eq!(plan.imbalance(), 1.0);
        assert_eq!(split_chunks(&events(2), 0), Err(DatasetError::ZeroParts));
    }

    #[test]
    fn views_share_the_records_and_equal_the_copying_wrappers() {
        let recs = variable_reads(57);
        let batch = RecordBatch::new(recs.clone());
        type Wrapper =
            fn(&[AnyRecord], usize) -> Result<(Vec<Vec<AnyRecord>>, SplitPlan), DatasetError>;
        type Planner = fn(&[AnyRecord], usize) -> Result<SplitPlan, DatasetError>;
        let policies: [(Planner, Wrapper); 3] = [
            (plan_even, split_even),
            (plan_records, split_records),
            (plan_chunks, split_chunks),
        ];
        for (planner, wrapper) in policies {
            for n in [1, 3, 16, 100] {
                let plan = planner(&batch, n).unwrap();
                let (copies, wrapper_plan) = wrapper(&recs, n).unwrap();
                assert_eq!(plan, wrapper_plan);
                let views = plan.views(&batch);
                assert_eq!(views.len(), copies.len());
                for (k, (view, copy)) in views.iter().zip(&copies).enumerate() {
                    assert_eq!(view, copy, "n={n} part {k}");
                    if let Some(first) = view.first() {
                        assert!(std::ptr::eq(first, &batch[plan.record_range(k).start]));
                    }
                }
            }
        }
    }

    #[test]
    fn reassemble_is_inverse() {
        let recs = variable_reads(23);
        let (parts, _) = split_records(&recs, 4).unwrap();
        assert_eq!(reassemble(&parts), recs);
    }

    #[test]
    fn split_dataset_names_parts() {
        let ds = Dataset::from_records("lc-1", "LC", events(6));
        let (parts, _) = split_dataset(&ds, 2).unwrap();
        assert_eq!(parts[0].descriptor.id.0, "lc-1.part0");
        assert_eq!(parts[1].descriptor.id.0, "lc-1.part1");
        assert_eq!(parts[0].len() + parts[1].len(), 6);
        assert!(parts[0].descriptor.name.ends_with("[part 0/2]"));
        assert!(std::ptr::eq(&parts[0].records[0], &ds.records[0]));
    }

    #[test]
    fn empty_input_splits_into_empty_parts() {
        let (parts, plan) = split_records(&[], 3).unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(Vec::is_empty));
        assert_eq!(plan.imbalance(), 1.0);
    }
}
