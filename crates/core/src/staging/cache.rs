//! Content-addressed split cache.
//!
//! Re-selecting a dataset (or re-splitting for the same engine count after
//! a rewind) is the interactive loop's hottest repeated cost: the seed
//! re-split and re-transferred every time. Parts are immutable views
//! ([`RecordBatch`]) into the published dataset, so the cut for a given
//! `(dataset content, split spec)` pair can be reused verbatim — a hit
//! costs O(parts) view clones and touches no record.
//!
//! The key is content-addressed through the descriptor (`id`, record
//! count, byte size): re-publishing a *different* dataset under the same
//! id changes the count/size and misses, so stale parts are never served.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use ipa_dataset::{DatasetDescriptor, PartColumns, RecordBatch, SplitPlan};

use super::SplitSpec;

/// Default number of distinct `(dataset, spec)` cuts kept.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    id: String,
    records: u64,
    size_bytes: u64,
    spec: SplitSpec,
}

impl CacheKey {
    fn new(descriptor: &DatasetDescriptor, spec: &SplitSpec) -> Self {
        CacheKey {
            id: descriptor.id.0.clone(),
            records: descriptor.records,
            size_bytes: descriptor.size_bytes,
            spec: *spec,
        }
    }
}

/// A cached cut: the parts, their (lazily built) columnar transcodes, and
/// the plan they were cut under.
#[derive(Debug, Clone)]
pub struct CachedSplit {
    /// The parts: views into the dataset the cut was made on.
    pub parts: Vec<RecordBatch>,
    /// Columnar transcodes parallel to `parts` — keyed by the same
    /// `(dataset content, split spec)` identity, so a hit shares every
    /// chunk any engine has built since (`None` per part under the row
    /// layout).
    pub columns: Vec<Option<Arc<PartColumns>>>,
    /// The plan describing the cut.
    pub plan: SplitPlan,
}

/// FIFO-bounded map from `(dataset content, split spec)` to a finished cut.
pub struct SplitCache {
    entries: HashMap<CacheKey, CachedSplit>,
    order: VecDeque<CacheKey>,
    capacity: usize,
}

impl Default for SplitCache {
    fn default() -> Self {
        SplitCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl SplitCache {
    /// Cache holding at most `capacity` cuts (oldest evicted first).
    pub fn with_capacity(capacity: usize) -> Self {
        SplitCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Look up the cut for a dataset + spec.
    pub fn get(&self, descriptor: &DatasetDescriptor, spec: &SplitSpec) -> Option<CachedSplit> {
        self.entries.get(&CacheKey::new(descriptor, spec)).cloned()
    }

    /// Store a finished cut, evicting the oldest entry over capacity.
    pub fn put(
        &mut self,
        descriptor: &DatasetDescriptor,
        spec: &SplitSpec,
        parts: &[RecordBatch],
        columns: &[Option<Arc<PartColumns>>],
        plan: &SplitPlan,
    ) {
        let key = CacheKey::new(descriptor, spec);
        let fresh = self
            .entries
            .insert(
                key.clone(),
                CachedSplit {
                    parts: parts.to_vec(),
                    columns: columns.to_vec(),
                    plan: plan.clone(),
                },
            )
            .is_none();
        if fresh {
            self.order.push_back(key);
        }
        while self.entries.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            } else {
                break;
            }
        }
    }

    /// Number of cached cuts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_dataset::{AnyRecord, Dataset};

    fn descriptor(id: &str, n: u64) -> DatasetDescriptor {
        let recs = (0..n)
            .map(|i| {
                AnyRecord::Event(ipa_dataset::CollisionEvent {
                    event_id: i,
                    run: 0,
                    sqrt_s: 500.0,
                    is_signal: false,
                    particles: vec![],
                })
            })
            .collect();
        Dataset::from_records(id, id, recs).descriptor
    }

    fn spec(parts: usize) -> SplitSpec {
        SplitSpec {
            micro_parts: false,
            parts,
            byte_balanced: false,
        }
    }

    fn cut(n: usize) -> (Vec<RecordBatch>, Vec<Option<Arc<PartColumns>>>, SplitPlan) {
        (
            vec![RecordBatch::new(Vec::new()); n],
            vec![None; n],
            SplitPlan {
                parts: n,
                ranges: vec![(0, 0, 0); n],
            },
        )
    }

    #[test]
    fn hit_returns_same_views_and_respects_key() {
        let mut c = SplitCache::default();
        let d = descriptor("a", 10);
        let (parts, columns, plan) = cut(2);
        c.put(&d, &spec(2), &parts, &columns, &plan);
        let hit = c.get(&d, &spec(2)).expect("hit");
        assert!(hit.parts[0].same_view(&parts[0]));
        assert_eq!(hit.columns.len(), 2);
        // Different spec or different content → miss.
        assert!(c.get(&d, &spec(3)).is_none());
        assert!(c.get(&descriptor("a", 11), &spec(2)).is_none());
        assert!(c.get(&descriptor("b", 10), &spec(2)).is_none());
    }

    #[test]
    fn hit_shares_the_chunks_built_since_the_put() {
        let mut c = SplitCache::default();
        let recs: Vec<AnyRecord> = (0..4)
            .map(|i| {
                AnyRecord::Event(ipa_dataset::CollisionEvent {
                    event_id: i,
                    run: 0,
                    sqrt_s: 500.0,
                    is_signal: false,
                    particles: vec![],
                })
            })
            .collect();
        let d = Dataset::from_records("t", "t", recs.clone()).descriptor;
        let parts = vec![RecordBatch::new(recs)];
        let columns = vec![Some(Arc::new(PartColumns::new(parts[0].clone())))];
        let plan = SplitPlan {
            parts: 1,
            ranges: vec![(0, 4, 0)],
        };
        c.put(&d, &spec(1), &parts, &columns, &plan);
        let ours = columns[0].as_ref().unwrap();
        assert!(ours.chunk_for(0).1.columns.is_some());
        let hit = c.get(&d, &spec(1)).expect("hit");
        let theirs = hit.columns[0].as_ref().unwrap();
        assert!(Arc::ptr_eq(theirs, ours));
        assert_eq!(theirs.built(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut c = SplitCache::with_capacity(2);
        let (parts, columns, plan) = cut(1);
        let (d1, d2, d3) = (descriptor("a", 1), descriptor("b", 1), descriptor("c", 1));
        c.put(&d1, &spec(1), &parts, &columns, &plan);
        c.put(&d2, &spec(1), &parts, &columns, &plan);
        c.put(&d3, &spec(1), &parts, &columns, &plan);
        assert_eq!(c.len(), 2);
        assert!(c.get(&d1, &spec(1)).is_none(), "oldest entry evicted");
        assert!(c.get(&d2, &spec(1)).is_some());
        assert!(c.get(&d3, &spec(1)).is_some());
        assert!(!c.is_empty());
    }

    #[test]
    fn replacing_an_entry_does_not_duplicate_order() {
        let mut c = SplitCache::with_capacity(2);
        let d = descriptor("a", 1);
        let (parts, columns, plan) = cut(1);
        c.put(&d, &spec(1), &parts, &columns, &plan);
        c.put(&d, &spec(1), &parts, &columns, &plan);
        assert_eq!(c.len(), 1);
    }
}
