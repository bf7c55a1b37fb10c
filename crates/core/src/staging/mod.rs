//! The staging plane: how a dataset becomes parts on engines.
//!
//! The paper's whole evaluation (§4, Tables 1–2) is staging cost — "Move
//! Whole", "Split", "Move Parts" dominate `T_grid` — so the dataset path
//! deserves the same subsystem treatment as scheduling ([`crate::sched`])
//! and the result plane ([`crate::aida_manager`]). This module gathers
//! everything between a [`DatasetId`] and staged parts behind one facade:
//!
//! * [`DatasetPlane`] — the trait the session drives: resolve a location,
//!   stage parts under a [`SplitSpec`], observe [`StagingStats`];
//! * [`SitePlane`] — the concrete plane for a site: locator +
//!   content-addressed [`SplitCache`](cache::SplitCache) + pipelined
//!   [`Stager`](pipeline::Stager);
//! * record-range *views* (`"<base>@<first>..<last>"` ids) resolved through
//!   [`DatasetLocation::RecordRange`], so the locator's §3.4 "set of
//!   contiguous records in a database server" arm is genuinely exercised;
//! * a transfer fault injector ([`StageFaultPlan`](pipeline::StageFaultPlan))
//!   with per-part retry/backoff, composing with the PR-1 epoch rules: a
//!   terminal staging failure surfaces as
//!   [`CoreError::StagingFailure`](crate::CoreError) *before* any epoch
//!   bump, leaving the session consistent on its previous dataset.
//!
//! Nothing on this path copies a record: a split is a *plan* of record
//! ranges, the stager moves range descriptors, and the staged parts are
//! [`RecordBatch`] views into the published dataset — a site holds one
//! copy of a dataset however many sessions and split specs stage it.
//! Staging reads no record either: under the columnar layout each part is
//! wrapped in a [`PartColumns`], whose chunks the engines transcode as
//! they first read them.
//!
//! The split cache is keyed by `(dataset id, record count, byte size,
//! split policy, part count, byte_balanced)` — re-selecting the same
//! dataset (or re-splitting for the same engine count after a rewind into
//! a new epoch) restages in O(parts) view clones instead of re-planning
//! and re-delivering, and hands back the same [`PartColumns`], so chunks
//! any engine already transcoded are never built again.

pub mod cache;
pub mod pipeline;

use std::sync::Arc;
use std::time::Instant;

use ipa_dataset::{
    plan_chunks, plan_even, plan_records, AnyRecord, DataLayout, DatasetDescriptor, DatasetId,
    PartColumns, RecordBatch, SplitPlan,
};
use serde::{Deserialize, Serialize};

use crate::config::IpaConfig;
use crate::error::CoreError;
use crate::locator::{DatasetLocation, LocatorService};

use cache::SplitCache;
use pipeline::{StageFaultPlan, Stager, StagerConfig};

/// How a dataset should be split — the session-state half of the split
/// cache key (the dataset-content half comes from the descriptor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SplitSpec {
    /// Pull-based micro-partitioning ([`plan_chunks`]) when true; one
    /// ~equal part per engine otherwise.
    pub micro_parts: bool,
    /// Target part count: living engines, or `engines × oversub` under
    /// micro-partitioning.
    pub parts: usize,
    /// Byte-balanced greedy split ([`plan_records`]) vs record-count
    /// split ([`plan_even`]). Ignored under micro-partitioning.
    pub byte_balanced: bool,
}

impl SplitSpec {
    /// Derive the spec the session needs from its config and the number of
    /// living engines (callers must reject `engines == 0` first).
    pub fn from_config(config: &IpaConfig, engines: usize) -> Self {
        let engines = engines.max(1);
        if config.scheduler.is_pull() {
            SplitSpec {
                micro_parts: true,
                parts: engines * config.oversub.max(1),
                byte_balanced: false,
            }
        } else {
            SplitSpec {
                micro_parts: false,
                parts: engines,
                byte_balanced: config.byte_balanced_split,
            }
        }
    }
}

/// A staged dataset: what [`DatasetPlane::stage`] hands the session.
#[derive(Debug, Clone)]
pub struct StagedDataset {
    /// Descriptor of the dataset (or record-range view) that was staged.
    pub descriptor: DatasetDescriptor,
    /// Where the locator resolved it.
    pub location: DatasetLocation,
    /// The parts, ready to assign to engines: views into the dataset.
    pub parts: Vec<RecordBatch>,
    /// Lazily built columnar transcodes parallel to `parts`: `Some` per
    /// non-empty part under [`DataLayout::Columnar`], all `None` under
    /// [`DataLayout::Row`]. Staging builds no chunk of them.
    pub columns: Vec<Option<Arc<PartColumns>>>,
    /// How the records were cut.
    pub plan: SplitPlan,
    /// True when the parts came out of the split cache (no re-plan, no
    /// re-delivery; `columns` are the cached ones, chunks built so far
    /// included).
    pub from_cache: bool,
}

/// Staging counters and per-phase timings, reported through
/// [`crate::SessionStatus`] and the gateway's `StagingStats` request —
/// the staging plane's counterpart of [`crate::SchedStats`].
///
/// Counters are cumulative over the plane's lifetime; the per-phase
/// durations and the simulated pipeline times describe the *most recent*
/// stage operation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StagingStats {
    /// Parts delivered through the pipeline (cache hits excluded).
    pub parts_staged: u64,
    /// Encoded bytes of the parts delivered (the plans' byte sums: what the
    /// 2006 site would have moved — here nothing is copied); hits add zero.
    pub bytes_moved: u64,
    /// Chunked transfers performed (a part is one or more chunks of
    /// ~`stage_chunk_bytes` each).
    pub chunks_sent: u64,
    /// Stage requests answered from the split cache.
    pub cache_hits: u64,
    /// Stage requests that had to split + transfer.
    pub cache_misses: u64,
    /// Chunk transfers retried after an injected/transient fault.
    pub retries: u64,
    /// Parts whose retry budget was exhausted (each one surfaced a
    /// [`crate::CoreError::StagingFailure`]).
    pub transfer_failures: u64,
    /// Last stage: locator resolution, milliseconds.
    pub locate_ms: f64,
    /// Last stage: split planning (a pass over encoded sizes), milliseconds.
    pub split_ms: f64,
    /// Last stage: chunked delivery of the parts' range descriptors,
    /// retries and backoff included (wall clock), milliseconds.
    pub deliver_ms: f64,
    /// Last stage: simulated serial staging-disk read, seconds (the
    /// paper's "move parts" serial phase, at the calibrated disk rate).
    pub sim_read_s: f64,
    /// Last stage: simulated parallel LAN part transfers, seconds.
    pub sim_transfer_s: f64,
    /// Last stage: simulated pipelined total, seconds (`read + transfer`
    /// when overlap is off, `max(read, transfer)` + one chunk latency
    /// when on).
    pub sim_pipelined_s: f64,
    /// `1 − pipelined/serial` of the last stage: the fraction of the
    /// eager staging time hidden by read/transfer overlap (0 with overlap
    /// disabled or from the cache).
    pub overlap_ratio: f64,
}

/// The facade every layer that touches datasets goes through: resolve,
/// stage, inject faults, observe. Implemented by [`SitePlane`]; sessions
/// hold it boxed so tests and benches can substitute their own plane.
pub trait DatasetPlane: Send {
    /// Resolve a dataset id (or `"<base>@<first>..<last>"` range view) to
    /// a physical location without staging anything.
    fn locate(&self, id: &DatasetId) -> Result<DatasetLocation, CoreError>;

    /// Stage a dataset: resolve, fetch/materialize, split per `spec`, and
    /// deliver the parts through the chunked transfer pipeline (or the
    /// split cache). Counters accumulate into [`DatasetPlane::stats`].
    fn stage(&mut self, id: &DatasetId, spec: &SplitSpec) -> Result<StagedDataset, CoreError>;

    /// Arm a transfer fault plan for subsequent [`DatasetPlane::stage`]
    /// calls (tests / chaos drills).
    fn inject_faults(&mut self, plan: StageFaultPlan);

    /// Cumulative staging counters plus last-stage phase timings.
    fn stats(&self) -> StagingStats;
}

/// The concrete [`DatasetPlane`] of a site: locator resolution, a
/// content-addressed split cache, and the pipelined chunked stager.
pub struct SitePlane {
    locator: LocatorService,
    cache: SplitCache,
    cache_enabled: bool,
    layout: DataLayout,
    stager_config: StagerConfig,
    faults: StageFaultPlan,
    stats: StagingStats,
}

impl SitePlane {
    /// Build a site's plane from its locator and config knobs.
    pub fn new(locator: LocatorService, config: &IpaConfig) -> Self {
        SitePlane {
            locator,
            cache: SplitCache::default(),
            cache_enabled: config.split_cache,
            layout: config.data_layout,
            stager_config: StagerConfig::from_config(config),
            faults: StageFaultPlan::default(),
            stats: StagingStats::default(),
        }
    }

    /// Override the stager's pipeline knobs (benches explore eager vs
    /// pipelined shapes without a full manager).
    pub fn with_stager_config(mut self, sc: StagerConfig) -> Self {
        self.stager_config = sc;
        self
    }

    fn plan(&self, records: &[AnyRecord], spec: &SplitSpec) -> Result<SplitPlan, CoreError> {
        if spec.micro_parts {
            plan_chunks(records, spec.parts)
        } else if spec.byte_balanced {
            plan_records(records, spec.parts)
        } else {
            plan_even(records, spec.parts)
        }
        .map_err(|e| CoreError::Staging(e.to_string()))
    }
}

impl DatasetPlane for SitePlane {
    fn locate(&self, id: &DatasetId) -> Result<DatasetLocation, CoreError> {
        self.locator.locate(id)
    }

    fn stage(&mut self, id: &DatasetId, spec: &SplitSpec) -> Result<StagedDataset, CoreError> {
        let t0 = Instant::now();
        let location = self.locator.locate(id)?;
        let ds = self.locator.materialize(id, &location)?;
        self.stats.locate_ms = t0.elapsed().as_secs_f64() * 1e3;

        if self.cache_enabled {
            if let Some(hit) = self.cache.get(&ds.descriptor, spec) {
                self.stats.cache_hits += 1;
                self.stats.split_ms = 0.0;
                self.stats.deliver_ms = 0.0;
                self.stats.sim_read_s = 0.0;
                self.stats.sim_transfer_s = 0.0;
                self.stats.sim_pipelined_s = 0.0;
                self.stats.overlap_ratio = 0.0;
                return Ok(StagedDataset {
                    descriptor: ds.descriptor.clone(),
                    location,
                    parts: hit.parts,
                    columns: hit.columns,
                    plan: hit.plan,
                    from_cache: true,
                });
            }
        }
        self.stats.cache_misses += 1;

        let t1 = Instant::now();
        let plan = self.plan(&ds.records, spec)?;
        self.stats.split_ms = t1.elapsed().as_secs_f64() * 1e3;

        let t2 = Instant::now();
        let stager = Stager::new(self.stager_config, &self.faults);
        let outcome = stager.deliver(&plan);
        self.stats.deliver_ms = t2.elapsed().as_secs_f64() * 1e3;
        self.stats.chunks_sent += outcome.chunks_sent;
        self.stats.retries += outcome.retries;
        if let Err(failure) = outcome.result {
            self.stats.transfer_failures += 1;
            return Err(CoreError::StagingFailure {
                part: failure.part,
                attempts: failure.attempts,
            });
        }
        // Every range arrived whole; the parts are those ranges of `ds`.
        let parts = plan.views(&ds.records);
        self.stats.parts_staged += parts.len() as u64;
        self.stats.bytes_moved += plan.ranges.iter().map(|r| r.2).sum::<u64>();
        self.stats.sim_read_s = outcome.sim_read_s;
        self.stats.sim_transfer_s = outcome.sim_transfer_s;
        self.stats.sim_pipelined_s = outcome.sim_pipelined_s;
        self.stats.overlap_ratio = outcome.overlap_ratio;

        // Columnar layout: wrap each part for lazy transcoding. The engines
        // build the chunks, in parallel, as they first read them; whatever
        // they build is shared through the split cache with every later
        // assignment of the part.
        let columnar = self.layout == DataLayout::Columnar;
        let columns: Vec<Option<Arc<PartColumns>>> = parts
            .iter()
            .map(|p| (columnar && !p.is_empty()).then(|| Arc::new(PartColumns::new(p.clone()))))
            .collect();

        if self.cache_enabled {
            self.cache
                .put(&ds.descriptor, spec, &parts, &columns, &plan);
        }
        Ok(StagedDataset {
            descriptor: ds.descriptor.clone(),
            location,
            parts,
            columns,
            plan,
            from_cache: false,
        })
    }

    fn inject_faults(&mut self, plan: StageFaultPlan) {
        self.faults = plan;
    }

    fn stats(&self) -> StagingStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DatasetStore;
    use ipa_dataset::{
        split_chunks, split_even, split_records, DatasetError, EventGeneratorConfig,
        GeneratorConfig,
    };

    fn plane(events: u64, config: &IpaConfig) -> SitePlane {
        let store = DatasetStore::new();
        store
            .put(ipa_dataset::generate_dataset(
                "ds",
                "ds",
                &GeneratorConfig::Event(EventGeneratorConfig {
                    events,
                    ..Default::default()
                }),
            ))
            .unwrap();
        SitePlane::new(LocatorService::new(store, "site"), config)
    }

    #[test]
    fn spec_follows_scheduler_config() {
        let mut c = IpaConfig {
            scheduler: crate::sched::SchedulerPolicy::Static,
            byte_balanced_split: true,
            ..Default::default()
        };
        let s = SplitSpec::from_config(&c, 4);
        assert_eq!(
            s,
            SplitSpec {
                micro_parts: false,
                parts: 4,
                byte_balanced: true
            }
        );
        c.scheduler = crate::sched::SchedulerPolicy::WorkQueue;
        c.oversub = 3;
        let s = SplitSpec::from_config(&c, 4);
        assert_eq!(
            s,
            SplitSpec {
                micro_parts: true,
                parts: 12,
                byte_balanced: false
            }
        );
    }

    #[test]
    fn restage_is_a_cache_hit_with_identical_parts() {
        let config = IpaConfig::default();
        let mut p = plane(500, &config);
        let spec = SplitSpec {
            micro_parts: false,
            parts: 4,
            byte_balanced: true,
        };
        let first = p.stage(&DatasetId::new("ds"), &spec).unwrap();
        assert!(!first.from_cache);
        let second = p.stage(&DatasetId::new("ds"), &spec).unwrap();
        assert!(second.from_cache);
        assert_eq!(p.stats().cache_hits, 1);
        assert_eq!(p.stats().cache_misses, 1);
        // Bit-identical: the hit returns the very same views.
        assert_eq!(first.parts.len(), second.parts.len());
        for (a, b) in first.parts.iter().zip(&second.parts) {
            assert!(a.same_view(b));
        }
        // A different spec is a different key.
        let other = p
            .stage(
                &DatasetId::new("ds"),
                &SplitSpec {
                    micro_parts: false,
                    parts: 2,
                    byte_balanced: true,
                },
            )
            .unwrap();
        assert!(!other.from_cache);
    }

    #[test]
    fn columnar_layout_stages_untranscoded_views_and_cache_hits_share_them() {
        let config = IpaConfig {
            data_layout: DataLayout::Columnar,
            ..Default::default()
        };
        let mut p = plane(20_000, &config);
        let spec = SplitSpec {
            micro_parts: false,
            parts: 2,
            byte_balanced: false,
        };
        let first = p.stage(&DatasetId::new("ds"), &spec).unwrap();
        assert_eq!(first.columns.len(), first.parts.len());
        // Staging read no record: no part has a chunk yet.
        for cols in &first.columns {
            let cols = cols.as_ref().expect("non-empty parts get columns");
            assert_eq!((cols.chunks(), cols.built()), (2, 0));
        }
        // What a reader builds, the next hit hands out — the same object.
        first.columns[1].as_ref().unwrap().chunk_for(9_000);
        let second = p.stage(&DatasetId::new("ds"), &spec).unwrap();
        assert!(second.from_cache);
        for (a, b) in first.columns.iter().zip(&second.columns) {
            assert!(Arc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap()));
        }
        assert_eq!(second.columns[1].as_ref().unwrap().built(), 1);
    }

    #[test]
    fn row_layout_skips_the_transcode() {
        let config = IpaConfig {
            data_layout: DataLayout::Row,
            ..Default::default()
        };
        let mut p = plane(100, &config);
        let staged = p
            .stage(
                &DatasetId::new("ds"),
                &SplitSpec {
                    micro_parts: false,
                    parts: 2,
                    byte_balanced: false,
                },
            )
            .unwrap();
        assert_eq!(staged.columns.len(), 2);
        assert!(staged.columns.iter().all(Option::is_none));
    }

    #[test]
    fn cache_toggle_disables_hits() {
        let config = IpaConfig {
            split_cache: false,
            ..Default::default()
        };
        let mut p = plane(100, &config);
        let spec = SplitSpec {
            micro_parts: false,
            parts: 2,
            byte_balanced: false,
        };
        p.stage(&DatasetId::new("ds"), &spec).unwrap();
        let again = p.stage(&DatasetId::new("ds"), &spec).unwrap();
        assert!(!again.from_cache);
        assert_eq!(p.stats().cache_hits, 0);
        assert_eq!(p.stats().cache_misses, 2);
    }

    #[test]
    fn delivered_parts_match_direct_split_bit_for_bit() {
        // Under every split policy the staged parts equal what the copying
        // wrapper returns — and are not copies: each starts at the address
        // of the published record its plan range starts at.
        type Wrapper =
            fn(&[AnyRecord], usize) -> Result<(Vec<Vec<AnyRecord>>, SplitPlan), DatasetError>;
        let policies: [(bool, bool, usize, Wrapper); 3] = [
            (false, true, 3, split_records),
            (false, false, 3, split_even),
            (true, false, 16, split_chunks),
        ];
        let mut p = plane(333, &IpaConfig::default());
        let published = p.locator.fetch(&DatasetId::new("ds")).unwrap();
        for (micro_parts, byte_balanced, parts, wrapper) in policies {
            let spec = SplitSpec {
                micro_parts,
                parts,
                byte_balanced,
            };
            let staged = p.stage(&DatasetId::new("ds"), &spec).unwrap();
            let (direct, plan) = wrapper(&published.records, parts).unwrap();
            assert_eq!(staged.plan, plan, "{spec:?}");
            assert_eq!(staged.parts.len(), direct.len());
            for (k, (got, want)) in staged.parts.iter().zip(&direct).enumerate() {
                assert_eq!(got, want, "{spec:?} part {k}");
                assert!(
                    std::ptr::eq(&got[0], &published.records[plan.ranges[k].0 as usize]),
                    "{spec:?} part {k} was copied"
                );
            }
        }
        // `bytes_moved` stays each plan's byte sum: the encoded payload,
        // i.e. the dataset's size without the codec's 18-byte header.
        assert_eq!(
            p.stats().bytes_moved,
            3 * (published.descriptor.size_bytes - 18)
        );
    }

    #[test]
    fn record_range_view_stages_the_slice() {
        let config = IpaConfig::default();
        let mut p = plane(200, &config);
        let id = DatasetId::new("ds@50..150");
        match p.locate(&id).unwrap() {
            DatasetLocation::RecordRange {
                source,
                first,
                last,
            } => {
                assert_eq!(source, "ds");
                assert_eq!((first, last), (50, 150));
            }
            other => panic!("expected RecordRange, got {other:?}"),
        }
        let staged = p
            .stage(
                &id,
                &SplitSpec {
                    micro_parts: false,
                    parts: 2,
                    byte_balanced: false,
                },
            )
            .unwrap();
        assert_eq!(staged.descriptor.records, 100);
        let total: usize = staged.parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn terminal_fault_surfaces_structured_failure() {
        let config = IpaConfig {
            stage_retries: 1,
            ..Default::default()
        };
        let mut p = plane(100, &config);
        p.inject_faults(StageFaultPlan::default().fail_part(0, 5));
        let err = p
            .stage(
                &DatasetId::new("ds"),
                &SplitSpec {
                    micro_parts: false,
                    parts: 2,
                    byte_balanced: false,
                },
            )
            .unwrap_err();
        match err {
            CoreError::StagingFailure { part, attempts } => {
                assert_eq!(part, 0);
                assert!(attempts >= 2, "attempts {attempts}");
            }
            other => panic!("expected StagingFailure, got {other:?}"),
        }
        assert_eq!(p.stats().transfer_failures, 1);
        assert!(p.stats().retries >= 1);
        // The plan is exhausted by the failed attempts eventually; a clean
        // plan stages fine and the failure left no cache entry behind.
        p.inject_faults(StageFaultPlan::default());
        let ok = p
            .stage(
                &DatasetId::new("ds"),
                &SplitSpec {
                    micro_parts: false,
                    parts: 2,
                    byte_balanced: false,
                },
            )
            .unwrap();
        assert!(!ok.from_cache);
    }

    #[test]
    fn stats_serde_round_trip() {
        let s = StagingStats {
            parts_staged: 8,
            bytes_moved: 1 << 20,
            chunks_sent: 32,
            cache_hits: 2,
            cache_misses: 1,
            retries: 3,
            transfer_failures: 0,
            locate_ms: 0.1,
            split_ms: 1.5,
            deliver_ms: 2.5,
            sim_read_s: 46.0,
            sim_transfer_s: 62.0,
            sim_pipelined_s: 62.5,
            overlap_ratio: 0.42,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: StagingStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
