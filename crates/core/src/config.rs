//! Site / session configuration.

use ipa_dataset::DataLayout;
use ipa_script::{ScriptBackend, ScriptFusion};
use serde::{Deserialize, Serialize};

use crate::sched::SchedulerPolicy;

/// Configuration of a manager node and the sessions it creates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IpaConfig {
    /// Engines started per session ("pre-configured number of analysis
    /// engines", paper §3.2) — still capped by the VO policy.
    pub engines_per_session: usize,
    /// Records an engine processes between publishing partial results.
    /// Smaller → faster feedback, more merge traffic (ablated in benches).
    pub publish_every: usize,
    /// Byte-balanced split when true, record-count split when false.
    pub byte_balanced_split: bool,
    /// Simulated seconds of proxy lifetime required to create a session.
    pub min_proxy_remaining_s: f64,
    /// How many times a failed engine is retried (its part re-queued and
    /// the engine kept alive) before the engine is declared dead. 0 means
    /// first failure is fatal for the engine — its part still re-runs on a
    /// surviving engine.
    pub max_part_retries: u32,
    /// How parts are mapped onto engines (see [`SchedulerPolicy`]).
    /// Defaults to the `IPA_SCHEDULER` environment variable when set,
    /// `Static` otherwise.
    #[serde(default = "SchedulerPolicy::from_env")]
    pub scheduler: SchedulerPolicy,
    /// Micro-parts per engine under the pull-based policies: the dataset
    /// is cut into `engines × oversub` chunks. Ignored by `Static`.
    /// Values below 1 are treated as 1.
    #[serde(default = "default_oversub")]
    pub oversub: usize,
    /// An engine is a straggler when `its_rate × straggler_factor` is
    /// still below the median engine rate. Only `WorkStealing` acts on
    /// this (by speculatively re-issuing the straggler's part).
    #[serde(default = "default_straggler_factor")]
    pub straggler_factor: f64,
    /// Per-engine slowdown multipliers applied at session creation (for
    /// benches and straggler experiments): engine `i` sleeps
    /// `(factor−1)×` its compute time per batch when `factors[i] > 1`.
    /// Engines beyond the vector's length run at full speed.
    #[serde(default)]
    pub speed_factors: Vec<f64>,
    /// Engines publish a full-tree checkpoint every this-many publishes
    /// and compact deltas in between. 1 restores the legacy behavior of
    /// cloning the whole tree on every publish; larger values cut publish
    /// traffic but lengthen the resync window after a lost delta.
    #[serde(default = "default_checkpoint_every")]
    pub checkpoint_every: usize,
    /// Sub-merger bucket size at the AIDA manager (§2.5 two-level merge):
    /// a dirty poll re-merges only the dirty parts' buckets of this many
    /// parts each, then combines the bucket trees.
    #[serde(default = "default_merge_fan_in")]
    pub merge_fan_in: usize,
    /// Max threads rebuilding dirty sub-merger buckets in parallel.
    #[serde(default = "default_merge_parallelism")]
    pub merge_parallelism: usize,
    /// Target chunk size for the pipelined stager's part transfers, in
    /// bytes. Smaller chunks overlap read and transfer at a finer grain
    /// at the cost of more per-chunk latency.
    #[serde(default = "default_stage_chunk_bytes")]
    pub stage_chunk_bytes: usize,
    /// Failed chunk-transfer attempts absorbed per part (with exponential
    /// backoff) before staging aborts with a `StagingFailure`.
    #[serde(default = "default_stage_retries")]
    pub stage_retries: u32,
    /// Overlap the serial staging-disk read with the parallel LAN
    /// transfers (the paper's pipelined "move parts" shape). When false,
    /// the full read pass completes before the first transfer (eager).
    #[serde(default = "default_stage_overlap")]
    pub stage_overlap: bool,
    /// Depth of the bounded queue between the stage reader and the
    /// transfer workers; the reader blocks (backpressure) when full.
    #[serde(default = "default_stage_queue_depth")]
    pub stage_queue_depth: usize,
    /// Keep finished splits in the content-addressed split cache so
    /// re-selecting the same dataset restages without re-splitting or
    /// re-transferring.
    #[serde(default = "default_split_cache")]
    pub split_cache: bool,
    /// Which IPAScript execution backend the engines run user scripts on
    /// (`vm` = bytecode VM, `interp` = AST tree-walk). Defaults to the
    /// `IPA_SCRIPT_BACKEND` environment variable when set, the VM
    /// otherwise.
    #[serde(default = "ScriptBackend::from_env")]
    pub script_backend: ScriptBackend,
    /// How aggressively the script compile pipeline fuses the analyze
    /// body (`off` = the resolver's raw op stream, `super` = peephole
    /// superinstructions, `kernel` = superinstructions plus the
    /// vectorized batch kernel over columnar parts). Results are
    /// bit-identical across levels. Defaults to the `IPA_SCRIPT_FUSION`
    /// environment variable when set, `kernel` otherwise.
    #[serde(default = "ScriptFusion::from_env")]
    pub script_fusion: ScriptFusion,
    /// In-memory layout engines read staged parts in. Under `columnar`
    /// each part is transcoded once, chunk by chunk by the engine that
    /// first reads it, so engines evaluate over column slices with bulk
    /// histogram fills; `row` keeps the record
    /// loop (the differential oracle). Results are bit-identical either
    /// way. Defaults to the `IPA_DATA_LAYOUT` environment variable when
    /// set, `columnar` otherwise.
    #[serde(default = "DataLayout::from_env")]
    pub data_layout: DataLayout,
    /// Write-ahead journal every session's control-plane transitions and
    /// result stream under [`IpaConfig::journal_dir`], enabling
    /// [`ManagerNode::recover`](crate::ManagerNode::recover) after a crash.
    /// Defaults to the `IPA_JOURNAL` environment variable (`off`,
    /// `buffered`, or `fsync`), off otherwise — off preserves the
    /// journal-free behavior exactly.
    #[serde(default = "default_journal")]
    pub journal: bool,
    /// Directory holding one `session-<id>.wal` per session.
    #[serde(default = "default_journal_dir")]
    pub journal_dir: String,
    /// Sync journal appends to stable storage (`IPA_JOURNAL=fsync`).
    /// Buffered appends survive a process crash but not an OS crash.
    #[serde(default = "default_journal_fsync")]
    pub journal_fsync: bool,
    /// Compact a session's journal (rewrite as one snapshot record) every
    /// this-many appended records; 0 disables compaction.
    #[serde(default = "default_compact_every")]
    pub compact_every: u64,
    /// Lease engines from a manager-owned shared
    /// [`EnginePool`](crate::pool::EnginePool) instead of spawning
    /// per-session engine threads. Defaults to the `IPA_ENGINE_POOL`
    /// environment variable (`on`/`1`/`true` enable it), off otherwise —
    /// off preserves the per-session-ownership behavior exactly, and a
    /// single session behaves bit-identically either way.
    #[serde(default = "default_engine_pool")]
    pub engine_pool: bool,
    /// Cap on engines the shared pool will ever spawn; 0 (the default)
    /// grows on demand and never preempts. With a cap, arriving sessions
    /// trigger fair-share revocation of over-entitled sessions' engines
    /// at part boundaries.
    #[serde(default)]
    pub pool_size: usize,
    /// How long a lease request waits for preempted engines to come back
    /// before granting partially (or failing with `PoolExhausted`).
    #[serde(default = "default_pool_lease_timeout_ms")]
    pub pool_lease_timeout_ms: u64,
    /// Worker threads in the gateway's connection reactor. Each worker
    /// multiplexes many nonblocking client sockets, so gateway thread
    /// count stays constant regardless of connected clients.
    #[serde(default = "default_gateway_workers")]
    pub gateway_workers: usize,
}

fn default_oversub() -> usize {
    4
}

fn default_straggler_factor() -> f64 {
    3.0
}

fn default_checkpoint_every() -> usize {
    16
}

fn default_merge_fan_in() -> usize {
    crate::aida_manager::DEFAULT_MERGE_FAN_IN
}

fn default_merge_parallelism() -> usize {
    crate::aida_manager::DEFAULT_MERGE_PARALLELISM
}

fn default_stage_chunk_bytes() -> usize {
    4 << 20
}

fn default_stage_retries() -> u32 {
    2
}

fn default_stage_overlap() -> bool {
    true
}

fn default_stage_queue_depth() -> usize {
    4
}

fn default_split_cache() -> bool {
    true
}

/// Parsed form of the `IPA_JOURNAL` environment variable.
fn journal_env() -> Option<String> {
    std::env::var("IPA_JOURNAL")
        .ok()
        .map(|v| v.trim().to_ascii_lowercase())
}

fn default_journal() -> bool {
    matches!(journal_env().as_deref(), Some("buffered") | Some("fsync"))
}

fn default_journal_dir() -> String {
    "ipa-journal".to_string()
}

fn default_journal_fsync() -> bool {
    matches!(journal_env().as_deref(), Some("fsync"))
}

fn default_compact_every() -> u64 {
    256
}

/// Parsed form of the `IPA_ENGINE_POOL` environment variable.
fn default_engine_pool() -> bool {
    matches!(
        std::env::var("IPA_ENGINE_POOL")
            .ok()
            .map(|v| v.trim().to_ascii_lowercase())
            .as_deref(),
        Some("on") | Some("1") | Some("true")
    )
}

fn default_pool_lease_timeout_ms() -> u64 {
    2_000
}

fn default_gateway_workers() -> usize {
    4
}

impl Default for IpaConfig {
    fn default() -> Self {
        IpaConfig {
            engines_per_session: 4,
            publish_every: 1000,
            byte_balanced_split: true,
            min_proxy_remaining_s: 60.0,
            max_part_retries: 0,
            scheduler: SchedulerPolicy::from_env(),
            oversub: default_oversub(),
            straggler_factor: default_straggler_factor(),
            speed_factors: Vec::new(),
            checkpoint_every: default_checkpoint_every(),
            merge_fan_in: default_merge_fan_in(),
            merge_parallelism: default_merge_parallelism(),
            stage_chunk_bytes: default_stage_chunk_bytes(),
            stage_retries: default_stage_retries(),
            stage_overlap: default_stage_overlap(),
            stage_queue_depth: default_stage_queue_depth(),
            split_cache: default_split_cache(),
            script_backend: ScriptBackend::from_env(),
            script_fusion: ScriptFusion::from_env(),
            data_layout: DataLayout::from_env(),
            journal: default_journal(),
            journal_dir: default_journal_dir(),
            journal_fsync: default_journal_fsync(),
            compact_every: default_compact_every(),
            engine_pool: default_engine_pool(),
            pool_size: 0,
            pool_lease_timeout_ms: default_pool_lease_timeout_ms(),
            gateway_workers: default_gateway_workers(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = IpaConfig::default();
        assert!(c.engines_per_session >= 1);
        assert!(c.publish_every >= 1);
        assert!(c.oversub >= 1);
        assert!(c.straggler_factor > 1.0);
    }

    #[test]
    fn old_configs_deserialize_with_scheduler_defaults() {
        // A config serialized before the scheduling plane existed must
        // still load, picking up defaults for the new knobs.
        let json = r#"{
            "engines_per_session": 2,
            "publish_every": 500,
            "byte_balanced_split": true,
            "min_proxy_remaining_s": 60.0,
            "max_part_retries": 1
        }"#;
        let c: IpaConfig = serde_json::from_str(json).unwrap();
        assert_eq!(c.engines_per_session, 2);
        assert_eq!(c.oversub, 4);
        assert!(c.speed_factors.is_empty());
        // Result-plane knobs (added after the scheduler plane) too.
        assert_eq!(c.checkpoint_every, 16);
        assert!(c.merge_fan_in >= 1);
        assert!(c.merge_parallelism >= 1);
        // Staging-plane knobs likewise default in.
        assert_eq!(c.stage_chunk_bytes, 4 << 20);
        assert_eq!(c.stage_retries, 2);
        assert!(c.stage_overlap);
        assert_eq!(c.stage_queue_depth, 4);
        assert!(c.split_cache);
        // The script backend and fusion level default in as well.
        assert_eq!(c.script_backend, ScriptBackend::from_env());
        assert_eq!(c.script_fusion, ScriptFusion::from_env());
        // So does the data-plane layout.
        assert_eq!(c.data_layout, DataLayout::from_env());
        // Journal knobs (newest) default in too.
        assert_eq!(c.journal_dir, "ipa-journal");
        assert_eq!(c.compact_every, 256);
        // Multi-tenant knobs default in as well.
        assert_eq!(c.engine_pool, default_engine_pool());
        assert_eq!(c.pool_size, 0);
        assert_eq!(c.pool_lease_timeout_ms, 2_000);
        assert_eq!(c.gateway_workers, 4);
    }

    #[test]
    fn script_backend_round_trips_through_json() {
        let mut c = IpaConfig {
            script_backend: ScriptBackend::Interp,
            ..Default::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"script_backend\":\"interp\""), "{json}");
        let back: IpaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.script_backend, ScriptBackend::Interp);

        c.script_backend = ScriptBackend::Vm;
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"script_backend\":\"vm\""), "{json}");
    }

    #[test]
    fn script_fusion_round_trips_through_json() {
        let c = IpaConfig {
            script_fusion: ScriptFusion::Super,
            ..Default::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"script_fusion\":\"super\""), "{json}");
        let back: IpaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.script_fusion, ScriptFusion::Super);
    }

    #[test]
    fn data_layout_round_trips_through_json() {
        let mut c = IpaConfig {
            data_layout: DataLayout::Row,
            ..Default::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"data_layout\":\"row\""), "{json}");
        let back: IpaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.data_layout, DataLayout::Row);

        c.data_layout = DataLayout::Columnar;
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"data_layout\":\"columnar\""), "{json}");
    }
}
