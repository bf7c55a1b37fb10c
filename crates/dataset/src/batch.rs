//! Shared, immutable record ranges.
//!
//! A published dataset's records live in one allocation for as long as
//! anything refers to them. Everything downstream — range-view datasets,
//! staged parts, the split cache — is a [`RecordBatch`]: a view, i.e. a
//! record range of that allocation; what a script holds is a
//! [`RecordHandle`], a view plus one index into it. Cloning or slicing
//! never touches a record, so a site keeps one copy of a dataset however
//! many sessions stage it.

use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::record::AnyRecord;

/// A contiguous range of records inside a shared, immutable allocation.
///
/// Dereferences to `[AnyRecord]`. `Clone` and [`RecordBatch::slice`] are
/// O(1). `==` compares record *contents* (also against a plain vector);
/// [`RecordBatch::same_view`] compares *identity*.
#[derive(Clone)]
pub struct RecordBatch(Arc<View>);

/// The range itself sits behind its own reference count, for two reasons.
/// A [`RecordHandle`] stays two words (scripts move those around by value
/// on every operation). And engines, which take and drop one handle per
/// record, each count on their own part's view: counting on the dataset's
/// allocation would have every engine of every session write one shared
/// cache line per record.
struct View {
    owner: Arc<[AnyRecord]>,
    // Invariant: `start + len <= owner.len()`, upheld by `new` and `slice`.
    start: usize,
    len: usize,
}

impl RecordBatch {
    /// Take ownership of `records` as one batch covering all of them. The
    /// records move into the shared allocation as they are: whatever they
    /// own (particle lists, strings) is not copied.
    pub fn new(records: Vec<AnyRecord>) -> Self {
        let len = records.len();
        RecordBatch(Arc::new(View {
            owner: records.into(),
            start: 0,
            len,
        }))
    }

    /// The sub-range `range` of this batch (indices relative to this
    /// batch), sharing the same allocation.
    ///
    /// # Panics
    /// Panics when `range` is inverted or reaches past the batch.
    pub fn slice(&self, range: Range<usize>) -> RecordBatch {
        assert!(
            range.start <= range.end && range.end <= self.0.len,
            "record range {range:?} outside a batch of {} records",
            self.0.len
        );
        RecordBatch(Arc::new(View {
            owner: Arc::clone(&self.0.owner),
            start: self.0.start + range.start,
            len: range.end - range.start,
        }))
    }

    /// True when both batches are the *same range of the same allocation*.
    /// Two parts of one dataset share the allocation but not the range, so
    /// anything keyed to a part (a column binding, say) must compare with
    /// this, never with the allocation alone.
    pub fn same_view(&self, other: &RecordBatch) -> bool {
        let (a, b) = (&self.0, &other.0);
        Arc::ptr_eq(&a.owner, &b.owner) && a.start == b.start && a.len == b.len
    }

    /// A handle to record `index` of this batch.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds.
    #[inline]
    pub fn handle(&self, index: usize) -> RecordHandle {
        assert!(index < self.0.len, "record index out of batch bounds");
        RecordHandle {
            view: Arc::clone(&self.0),
            index,
        }
    }

    /// Which row of this batch `record` is: `Some(i)` exactly when
    /// `&self[i]` is the record the handle points at, whichever batch
    /// handed it out. A record of another part of the same dataset shares
    /// the allocation but lies outside this batch's range, and gets `None`.
    #[inline]
    pub fn row_of(&self, record: &RecordHandle) -> Option<usize> {
        // The usual case, kept small enough to inline into a hot loop: a
        // handle this very batch handed out.
        if Arc::ptr_eq(&self.0, &record.view) {
            Some(record.index)
        } else {
            self.row_of_foreign(record)
        }
    }

    /// [`RecordBatch::row_of`] for a handle another batch handed out.
    #[cold]
    fn row_of_foreign(&self, record: &RecordHandle) -> Option<usize> {
        let row = (record.view.start + record.index).wrapping_sub(self.0.start);
        (Arc::ptr_eq(&self.0.owner, &record.view.owner) && row < self.0.len).then_some(row)
    }
}

impl Deref for RecordBatch {
    type Target = [AnyRecord];

    #[inline]
    fn deref(&self) -> &[AnyRecord] {
        &self.0.owner[self.0.start..self.0.start + self.0.len]
    }
}

impl std::fmt::Debug for RecordBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for RecordBatch {
    fn eq(&self, other: &RecordBatch) -> bool {
        self.same_view(other) || **self == **other
    }
}

impl PartialEq<Vec<AnyRecord>> for RecordBatch {
    fn eq(&self, other: &Vec<AnyRecord>) -> bool {
        **self == **other
    }
}

/// One record of a shared allocation: what [`RecordBatch::handle`] gives
/// out. Dereferences to the record; cloning bumps the reference count of
/// the batch it came from. `==` compares the records' contents.
#[derive(Clone)]
pub struct RecordHandle {
    view: Arc<View>,
    // Invariant: `index < view.len`, upheld by `RecordBatch::handle`.
    index: usize,
}

impl Deref for RecordHandle {
    type Target = AnyRecord;

    #[inline]
    fn deref(&self) -> &AnyRecord {
        &self.view.owner[self.view.start + self.index]
    }
}

impl std::fmt::Debug for RecordHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq for RecordHandle {
    fn eq(&self, other: &RecordHandle) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CollisionEvent, FourVector, Particle};

    fn events(n: u64) -> Vec<AnyRecord> {
        (0..n)
            .map(|i| {
                AnyRecord::Event(CollisionEvent {
                    event_id: i,
                    run: 0,
                    sqrt_s: 500.0,
                    is_signal: false,
                    particles: vec![Particle::new(22, 0.0, FourVector::new(1.0, 1.0, 0.0, 0.0))],
                })
            })
            .collect()
    }

    fn particles(rec: &AnyRecord) -> *const Particle {
        match rec {
            AnyRecord::Event(e) => e.particles.as_ptr(),
            other => panic!("not an event: {other:?}"),
        }
    }

    #[test]
    fn new_moves_the_records_in_without_copying_what_they_own() {
        let recs = events(5);
        let owned: Vec<*const Particle> = recs.iter().map(particles).collect();
        let batch = RecordBatch::new(recs);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.iter().map(particles).collect::<Vec<_>>(), owned);
    }

    #[test]
    fn slices_and_clones_share_the_allocation() {
        let batch = RecordBatch::new(events(10));
        let mid = batch.slice(2..7);
        assert_eq!(mid.len(), 5);
        assert!(std::ptr::eq(&mid[0], &batch[2]));
        // Slicing composes: indices are relative to the view.
        let inner = mid.slice(1..3);
        assert!(std::ptr::eq(&inner[0], &batch[3]));
        assert_eq!(inner.len(), 2);
        assert!(std::ptr::eq(&mid.clone()[4], &batch[6]));
        assert!(batch.slice(4..4).is_empty());
    }

    #[test]
    fn identity_is_owner_and_range_equality_is_content() {
        let batch = RecordBatch::new(events(6));
        let a = batch.slice(0..3);
        let b = batch.slice(3..6);
        assert!(a.same_view(&batch.slice(0..3)));
        assert!(!a.same_view(&b), "same owner, different range");
        assert!(!a.same_view(&a.slice(0..2)), "same start, different length");
        let copy = RecordBatch::new(a.to_vec());
        assert!(!a.same_view(&copy), "equal content, different owner");
        assert_eq!(a, copy);
        assert_eq!(a, a.to_vec());
        assert_ne!(a, b);
    }

    #[test]
    fn handles_point_at_the_batch_records_and_know_their_row() {
        let batch = RecordBatch::new(events(10));
        let (head, tail) = (batch.slice(0..4), batch.slice(4..10));
        let h = tail.handle(2);
        assert!(std::ptr::eq(&*h, &batch[6]));
        assert_eq!(tail.row_of(&h), Some(2));
        assert_eq!(
            batch.row_of(&h),
            Some(6),
            "the whole dataset contains it too"
        );
        assert_eq!(head.row_of(&h), None, "same allocation, another part");
        assert_eq!(tail.row_of(&head.handle(3)), None, "rows before the part");
        let copy = RecordBatch::new(tail.to_vec());
        assert_eq!(copy.row_of(&h), None, "equal content, another allocation");
        assert_eq!(copy.handle(2), h, "handles compare by content");
    }

    #[test]
    #[should_panic(expected = "out of batch bounds")]
    fn handle_past_the_end_panics() {
        RecordBatch::new(events(3)).slice(0..2).handle(2);
    }

    #[test]
    #[should_panic(expected = "outside a batch")]
    fn slice_past_the_end_panics() {
        RecordBatch::new(events(3)).slice(1..4);
    }
}
