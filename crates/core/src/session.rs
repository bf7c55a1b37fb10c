//! The interactive analysis session.
//!
//! A [`Session`] is the WSRF-style stateful resource at the heart of the
//! design (§3.2): every client call happens in its context. It owns the
//! session's engines, the dataset parts, the AIDA manager, and the run
//! state; the client drives it with the paper's four steps and polls for
//! merged results ("a separate plug-in on the JAS client constantly polls
//! the AIDA manager", §3.7).
//!
//! Fault tolerance beyond the paper: a failed engine's part is invalidated
//! and re-queued at the next poll, and each engine has a retry budget
//! ([`crate::IpaConfig::max_part_retries`]) — a failed engine is kept
//! alive and handed its part again until the budget is spent, after which
//! it is declared dead and its part re-runs on a surviving engine. Results
//! never double count because merging is keyed by part.
//!
//! Every control-plane reset (`select_dataset`, `load_code`, `rewind`)
//! bumps a session-wide *run epoch*. Commands carry the epoch out to the
//! engines, engines stamp it into every event, and both [`Session::poll`]
//! and the AIDA manager drop anything from a superseded epoch — so
//! updates already queued in the event channel when the user rewinds can
//! never re-pollute the fresh run's merged results.
//!
//! Scheduling is pluggable ([`crate::IpaConfig::scheduler`]): the paper's
//! static one-part-per-engine split, or the pull-based policies from
//! [`crate::sched`] that over-partition into micro-parts, let fast
//! engines steal queued work, and speculatively re-execute a straggler's
//! part on an idle engine — first completion wins, the loser's late
//! updates are dropped by part-dedup (see [`crate::sched::PartQueue`]).

use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use ipa_aida::Tree;
use ipa_dataset::{DatasetDescriptor, DatasetId, PartColumns, RecordBatch};
use serde::{Deserialize, Serialize};

use crate::aida_manager::{AidaManager, PublishOutcome, ResultPlaneStats};
use crate::analyzer::{instantiate_code, AnalysisCode, NativeRegistry};
use crate::config::IpaConfig;
use crate::engine::{EngineCommand, EngineEvent, EngineHandle, EngineId, PartId};
use crate::error::CoreError;
use crate::journal::{JournalEvent, RecoveredState, SessionJournal, SessionSnapshot};
use crate::pool::EnginePool;
use crate::registry::{WorkerRegistry, WorkerState};
use crate::sched::{CompletionOutcome, PartQueue, SchedStats, SchedulerPolicy, WorkerLedger};
use crate::staging::{pipeline::StageFaultPlan, DatasetPlane, SplitSpec, StagingStats};

/// Run state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunState {
    /// No run started (or rewound).
    Idle,
    /// Engines are processing.
    Running,
    /// Paused by the user (resume with run).
    Paused,
    /// Stopped by the user.
    Stopped,
    /// All parts processed.
    Finished,
}

/// Per-engine bookkeeping.
struct EngineSlot {
    handle: EngineHandle,
    alive: bool,
    /// Part currently assigned, with completion flag.
    part: Option<(PartId, bool)>,
    /// Records reported processed in the current part so far (the last
    /// cumulative `processed` stamp) — the baseline for progress deltas.
    part_progress: u64,
    /// Remaining run-N budget carried across part boundaries under the
    /// pull policies; `None` = unbounded run, `Some(0)` = exhausted.
    budget_left: Option<usize>,
    /// Records completed in earlier parts (for registry progress).
    completed_records: u64,
    /// Failures absorbed by the retry budget so far this epoch.
    retries_used: u32,
}

/// One engine failure, as recorded by the session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Which engine failed.
    pub engine: EngineId,
    /// The part it was processing, if any.
    pub part: Option<PartId>,
    /// Run epoch the failure happened under.
    pub epoch: u64,
    /// Failure description from the engine.
    pub message: String,
    /// Wall-clock time the session recorded the failure.
    pub at: SystemTime,
}

/// Snapshot returned by [`Session::poll`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStatus {
    /// Current run state.
    pub state: RunState,
    /// Records processed across all parts.
    pub records_processed: u64,
    /// Total records in the selected dataset.
    pub records_total: u64,
    /// Parts fully processed.
    pub parts_done: usize,
    /// Total parts.
    pub parts_total: usize,
    /// Engines still alive.
    pub engines_alive: usize,
    /// Run epoch this snapshot belongs to (bumped by `select_dataset`,
    /// `load_code`, and `rewind`).
    pub epoch: u64,
    /// Scheduler counters and per-engine throughput for this epoch.
    pub sched: SchedStats,
    /// Result-plane counters: snapshot version, dirty parts, merge work
    /// performed vs. saved by the cache, delta/checkpoint traffic.
    pub results: ResultPlaneStats,
    /// Staging-plane counters: parts/bytes/chunks moved, split-cache
    /// hits, transfer retries, and the last stage's phase timings.
    #[serde(default)]
    pub staging: StagingStats,
    /// Log lines collected since the last poll.
    pub new_logs: Vec<(EngineId, String)>,
}

impl SessionStatus {
    /// Completion fraction in `[0, 1]` (1 when the dataset is empty).
    pub fn progress(&self) -> f64 {
        if self.records_total == 0 {
            1.0
        } else {
            self.records_processed as f64 / self.records_total as f64
        }
    }
}

/// An interactive parallel analysis session.
pub struct Session {
    id: u64,
    subject: String,
    engines: Vec<EngineSlot>,
    events: Receiver<EngineEvent>,
    aida: AidaManager,
    plane: Box<dyn DatasetPlane>,
    config: IpaConfig,

    dataset: Option<DatasetDescriptor>,
    /// The dataset id exactly as the client supplied it (including
    /// `"<base>@<first>..<last>"` range views) — what the journal records
    /// and recovery re-stages through the locator.
    dataset_source: Option<String>,
    parts: Vec<RecordBatch>,
    /// Columnar transcodes parallel to `parts` (`None` per part under the
    /// row layout or for an empty part), built chunk by chunk by the
    /// engines; shared with them on every assignment so rewind/re-assign/
    /// steal/speculate reuse every chunk already built.
    part_columns: Vec<Option<Arc<PartColumns>>>,
    queue: PartQueue,
    ledger: WorkerLedger,
    stats: SchedStats,
    code: Option<AnalysisCode>,
    state: RunState,
    epoch: u64,
    logs: Vec<(EngineId, String)>,
    failures: Vec<FailureRecord>,
    registry: WorkerRegistry,
    /// Write-ahead log of this session's transitions (None = journal off;
    /// every hook is a no-op and behavior matches the journal-free build).
    journal: Option<SessionJournal>,
    /// The shared pool these engines are leased from (None = the session
    /// owns its engine threads outright). Enables part-boundary lease
    /// revocation when other sessions are short.
    pool: Option<EnginePool>,
    /// Leases returned to the pool under revocation so far — engine slots
    /// still occupy `engines` (ids are positional) but are dead.
    released_engines: usize,
    closed: bool,
}

impl Session {
    pub(crate) fn new(
        id: u64,
        subject: String,
        engines: Vec<EngineHandle>,
        events: Receiver<EngineEvent>,
        plane: Box<dyn DatasetPlane>,
        config: IpaConfig,
        registry: WorkerRegistry,
    ) -> Self {
        // Apply configured per-engine slowdowns (straggler experiments).
        for (i, handle) in engines.iter().enumerate() {
            if let Some(&f) = config.speed_factors.get(i) {
                if f > 1.0 {
                    handle.send(EngineCommand::Throttle(f));
                }
            }
        }
        let n = engines.len();
        let mut ledger = WorkerLedger::default();
        ledger.reset(n);
        Session {
            id,
            subject,
            engines: engines
                .into_iter()
                .map(|handle| EngineSlot {
                    handle,
                    alive: true,
                    part: None,
                    part_progress: 0,
                    budget_left: None,
                    completed_records: 0,
                    retries_used: 0,
                })
                .collect(),
            events,
            aida: AidaManager::with_merge_config(config.merge_fan_in, config.merge_parallelism),
            plane,
            stats: SchedStats {
                policy: config.scheduler,
                ..SchedStats::default()
            },
            config,
            dataset: None,
            dataset_source: None,
            parts: Vec::new(),
            part_columns: Vec::new(),
            queue: PartQueue::default(),
            ledger,
            code: None,
            state: RunState::Idle,
            epoch: 0,
            logs: Vec::new(),
            failures: Vec::new(),
            registry,
            journal: None,
            pool: None,
            released_engines: 0,
            closed: false,
        }
    }

    /// Attach the shared engine pool this session leases from (set by the
    /// manager when `IpaConfig::engine_pool` is on). From then on every
    /// poll honors pending lease revocations at part boundaries.
    pub(crate) fn attach_pool(&mut self, pool: EnginePool) {
        self.pool = Some(pool);
    }

    /// Attach a write-ahead journal and record the session's creation.
    /// Called by the manager right after spawn when journaling is on;
    /// also public so tests can attach a memory-backed journal.
    pub fn attach_journal(&mut self, journal: SessionJournal) {
        self.journal = Some(journal);
        self.journal_event(JournalEvent::SessionCreated {
            session: self.id,
            subject: self.subject.clone(),
            engines: self.engines.len(),
        });
    }

    /// Journal appends that failed (0 when journaling is off). Best-effort
    /// durability: failures degrade recoverability, never the live run.
    pub fn journal_append_errors(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.append_errors())
    }

    /// Append `ev` to the journal (no-op with journaling off), compacting
    /// the log down to a single snapshot record when the append counter
    /// crosses [`crate::IpaConfig::compact_every`].
    fn journal_event(&mut self, ev: JournalEvent) {
        let should_compact = match self.journal.as_mut() {
            Some(journal) => {
                journal.append(&ev);
                journal.should_compact()
            }
            None => return,
        };
        if should_compact {
            let snapshot = self.session_snapshot();
            if let Some(journal) = self.journal.as_mut() {
                journal.compact(&snapshot);
            }
        }
    }

    /// Complete recoverable state at this instant (compaction record).
    fn session_snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            session: self.id,
            subject: self.subject.clone(),
            engines: self.engines.len() - self.released_engines,
            dataset: self.dataset_source.clone(),
            code: self.code.clone(),
            epoch: self.epoch,
            state: self.state,
            completed: self.queue.completed_parts(),
            results: self.aida.export(),
        }
    }

    /// Session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Authenticated subject this session belongs to.
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// Number of engines (alive or not).
    pub fn engines(&self) -> usize {
        self.engines.len()
    }

    /// Engines still alive.
    pub fn engines_alive(&self) -> usize {
        self.engines.iter().filter(|e| e.alive).count()
    }

    /// The selected dataset, if any.
    pub fn dataset(&self) -> Option<&DatasetDescriptor> {
        self.dataset.as_ref()
    }

    /// The staged parts' columnar transcodes, in part order (`None` under
    /// the row layout or for an empty part). [`PartColumns::built`] tells
    /// how many chunks of a part any engine has read so far.
    pub fn part_columns(&self) -> &[Option<Arc<PartColumns>>] {
        &self.part_columns
    }

    /// Engine failures recorded so far (current-epoch only).
    pub fn failures(&self) -> &[FailureRecord] {
        &self.failures
    }

    /// Current run epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Start a new run epoch: merged results and progress counters reset,
    /// retry budgets refill, throughput history and scheduler counters
    /// clear, and any event still in flight from the old epoch will be
    /// dropped on arrival.
    fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.aida.begin_epoch(self.epoch);
        self.registry.reset_progress(self.id);
        self.ledger.reset(self.engines.len());
        self.stats = SchedStats {
            policy: self.config.scheduler,
            ..SchedStats::default()
        };
        for slot in self.engines.iter_mut() {
            slot.completed_records = 0;
            slot.retries_used = 0;
        }
        self.journal_event(JournalEvent::EpochBumped { epoch: self.epoch });
    }

    fn check_open(&self) -> Result<(), CoreError> {
        if self.closed {
            Err(CoreError::SessionClosed)
        } else {
            Ok(())
        }
    }

    /// Wait for every engine's ready signal (called by the manager right
    /// after spawning). A timeout with engines merely slow reports
    /// [`CoreError::StartupTimeout`] (how many were ready vs. expected);
    /// a broken event channel — the engines actually died — still reports
    /// [`CoreError::EngineGone`].
    pub(crate) fn wait_ready(&mut self) -> Result<(), CoreError> {
        let mut ready = 0usize;
        let deadline = Instant::now() + Duration::from_secs(30);
        while ready < self.engines.len() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(remaining) {
                Ok(EngineEvent::Ready { .. }) => ready += 1,
                Ok(other) => self.absorb(other),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CoreError::StartupTimeout {
                        ready,
                        expected: self.engines.len(),
                    })
                }
                Err(RecvTimeoutError::Disconnected) => return Err(CoreError::EngineGone(ready)),
            }
        }
        Ok(())
    }

    /// Rebuild a live session around journal-replayed state (the manager's
    /// crash-recovery path). Fresh engines are spawned by the caller; this
    /// re-stages the dataset through the staging plane (the split cache
    /// makes that O(parts) for a dataset staged before the crash), restores
    /// the run epoch *without* bumping it, ships the loaded code, installs
    /// the recovered result plane verbatim, and re-queues every part not
    /// durably completed. A session that was `Running` comes back `Paused`
    /// — the client resumes explicitly with `run` — or `Finished` when
    /// every part had already completed. The journal (if any) is rewritten
    /// as a single compacted snapshot so crash/recover cycles cannot
    /// accrete history.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recover(
        id: u64,
        rec: RecoveredState,
        engines: Vec<EngineHandle>,
        events: Receiver<EngineEvent>,
        plane: Box<dyn DatasetPlane>,
        config: IpaConfig,
        registry: WorkerRegistry,
        journal: Option<SessionJournal>,
    ) -> Result<Session, CoreError> {
        let mut s = Session::new(
            id,
            rec.subject.clone(),
            engines,
            events,
            plane,
            config,
            registry,
        );
        s.wait_ready()?;
        if let Some(ds_id) = &rec.dataset {
            let alive = s.engines_alive();
            if alive == 0 {
                return Err(CoreError::AllEnginesFailed);
            }
            // Same engine count as creation → same split → the replayed
            // part ids line up with the re-staged parts.
            let spec = SplitSpec::from_config(&s.config, alive);
            let staged = s.plane.stage(&DatasetId::new(ds_id.clone()), &spec)?;
            s.parts = staged.parts;
            s.part_columns = staged.columns;
            s.dataset = Some(staged.descriptor);
            s.dataset_source = Some(ds_id.clone());
        }
        // Replay owns the epoch counter: restore, never bump (a bump would
        // orphan the recovered results under a superseded epoch).
        s.epoch = rec.epoch;
        if let Some(code) = &rec.code {
            let epoch = s.epoch;
            for slot in s.engines.iter_mut().filter(|sl| sl.alive) {
                slot.handle.send(EngineCommand::LoadCode {
                    code: code.clone(),
                    epoch,
                });
            }
            s.code = Some(code.clone());
        }
        s.aida = rec.aida;
        s.queue.stage(s.parts.len());
        s.stats.parts_queued = s.parts.len() as u64;
        for &p in &rec.completed {
            if (p as usize) < s.parts.len() {
                s.queue.mark_recovered_complete(p);
            }
        }
        // Hand each engine its first incomplete part (mirror of restage).
        // The first publish of a fresh assignment is always a checkpoint,
        // so a re-run part replaces any replayed partial accumulator
        // instead of double counting into it.
        let epoch = s.epoch;
        for (idx, slot) in s.engines.iter_mut().enumerate() {
            if !slot.alive {
                continue;
            }
            match s.queue.pop(idx) {
                Some(part) => {
                    slot.handle.send(EngineCommand::AssignPart {
                        part,
                        records: s.parts[part as usize].clone(),
                        columns: s.part_columns[part as usize].clone(),
                        epoch,
                    });
                    slot.part = Some((part, false));
                }
                None => {
                    slot.handle.send(EngineCommand::Stop);
                }
            }
        }
        let all_done = !s.parts.is_empty() && s.queue.completed_len() == s.parts.len();
        s.state = match rec.state {
            RunState::Running if all_done => RunState::Finished,
            RunState::Running => RunState::Paused,
            other => other,
        };
        if let Some(mut journal) = journal {
            journal.compact(&s.session_snapshot());
            s.journal = Some(journal);
        }
        Ok(s)
    }

    /// Step 2: choose a dataset. The whole dataset path goes through the
    /// staging plane ([`crate::staging::DatasetPlane`]): the locator
    /// resolves the id (plain or `"<base>@<first>..<last>"` range view),
    /// the split cache answers repeats in O(parts), and the pipelined
    /// stager cuts and delivers parts under the session's [`SplitSpec`] —
    /// one ~equal part per engine under `Static`, `engines × oversub`
    /// micro-parts under the pull policies.
    ///
    /// With zero living engines this fails with
    /// [`CoreError::AllEnginesFailed`] instead of silently splitting into
    /// one part nobody will run. A terminal transfer failure surfaces as
    /// [`CoreError::StagingFailure`] *before* any epoch bump, so the
    /// session stays consistent on its previous dataset.
    pub fn select_dataset(&mut self, id: &DatasetId) -> Result<(), CoreError> {
        self.check_open()?;
        let alive = self.engines_alive();
        if alive == 0 {
            return Err(CoreError::AllEnginesFailed);
        }
        let spec = SplitSpec::from_config(&self.config, alive);
        let staged = self.plane.stage(id, &spec)?;
        self.parts = staged.parts;
        self.part_columns = staged.columns;
        self.dataset = Some(staged.descriptor);
        self.dataset_source = Some(id.to_string());
        self.restage();
        self.journal_event(JournalEvent::DatasetSelected { id: id.to_string() });
        Ok(())
    }

    /// Start a fresh epoch over the current `parts`: stage the queue and
    /// hand each living engine its first part. Engines that get no part
    /// are quiesced (they keep their old epoch, so anything they might
    /// still publish is dropped). Shared by `select_dataset`, `load_code`,
    /// and `rewind` — under micro-partitioning every reset must rebuild
    /// the whole queue, not just the parts engines currently hold.
    fn restage(&mut self) {
        self.bump_epoch();
        self.queue.stage(self.parts.len());
        self.stats.parts_queued = self.parts.len() as u64;
        let epoch = self.epoch;
        for (idx, slot) in self.engines.iter_mut().enumerate() {
            slot.part = None;
            slot.part_progress = 0;
            slot.budget_left = None;
            if !slot.alive {
                continue;
            }
            match self.queue.pop(idx) {
                Some(part) => {
                    slot.handle.send(EngineCommand::AssignPart {
                        part,
                        records: self.parts[part as usize].clone(),
                        columns: self.part_columns[part as usize].clone(),
                        epoch,
                    });
                    slot.part = Some((part, false));
                }
                None => {
                    slot.handle.send(EngineCommand::Stop);
                }
            }
        }
        self.state = RunState::Idle;
    }

    /// Step 3a: ship analysis code to every engine. The code is validated
    /// locally first so syntax errors surface immediately; loading resets
    /// any run in progress (paper §3.6: edit, reload, reprocess).
    pub fn load_code(&mut self, code: AnalysisCode) -> Result<(), CoreError> {
        self.check_open()?;
        // Validate before shipping (scripts compile; natives must exist on
        // the engines' registry, which mirrors this one).
        instantiate_code(
            &code,
            &self.local_registry(),
            self.config.script_backend,
            self.config.script_fusion,
        )?;
        if !self.parts.is_empty() {
            // Re-stage so the new code reprocesses the *whole* dataset:
            // under micro-partitioning the engines only hold the parts
            // they were last running, the rest live in the queue.
            self.restage();
        } else {
            self.bump_epoch();
            self.state = RunState::Idle;
        }
        let epoch = self.epoch;
        for slot in self.engines.iter_mut().filter(|s| s.alive) {
            slot.handle.send(EngineCommand::LoadCode {
                code: code.clone(),
                epoch,
            });
        }
        self.journal_event(JournalEvent::CodeLoaded { code: code.clone() });
        self.code = Some(code);
        Ok(())
    }

    // Engines hold the authoritative registry; the session only needs one
    // for validation. Natives are validated engine-side anyway, so an
    // empty registry would only delay the error — we use the builtin set.
    fn local_registry(&self) -> NativeRegistry {
        crate::analyzer::builtin_registry()
    }

    /// Step 3b: start (or resume) the analysis run.
    pub fn run(&mut self) -> Result<(), CoreError> {
        self.check_open()?;
        if self.dataset.is_none() {
            return Err(CoreError::NoDataset);
        }
        if self.code.is_none() {
            return Err(CoreError::NoCode);
        }
        if self.engines_alive() == 0 {
            return Err(CoreError::AllEnginesFailed);
        }
        for slot in self.engines.iter_mut().filter(|s| s.alive) {
            slot.budget_left = None;
            slot.handle.send(EngineCommand::Run);
        }
        self.state = RunState::Running;
        self.journal_event(JournalEvent::RunStarted);
        Ok(())
    }

    /// "Run specific no of events": each engine processes at most `n`
    /// further records, then pauses. Under the pull policies the budget
    /// carries across part boundaries — an engine that finishes a
    /// micro-part with budget left pulls the next part and keeps going.
    pub fn run_events(&mut self, n: usize) -> Result<(), CoreError> {
        self.check_open()?;
        if self.dataset.is_none() {
            return Err(CoreError::NoDataset);
        }
        if self.code.is_none() {
            return Err(CoreError::NoCode);
        }
        if self.engines_alive() == 0 {
            return Err(CoreError::AllEnginesFailed);
        }
        for slot in self.engines.iter_mut().filter(|s| s.alive) {
            slot.budget_left = Some(n);
            slot.handle.send(EngineCommand::RunN(n));
        }
        self.state = RunState::Running;
        self.journal_event(JournalEvent::RunStarted);
        Ok(())
    }

    /// Pause the run (resume with [`Session::run`]).
    pub fn pause(&mut self) -> Result<(), CoreError> {
        self.check_open()?;
        for slot in self.engines.iter().filter(|s| s.alive) {
            slot.handle.send(EngineCommand::Pause);
        }
        if self.state == RunState::Running {
            self.state = RunState::Paused;
        }
        self.journal_event(JournalEvent::RunPaused);
        Ok(())
    }

    /// Stop the run. Unlike [`Session::pause`], engines drop their
    /// position: a later [`Session::run`] restarts each part from record
    /// 0 rather than resuming mid-way. Results merged so far stay visible
    /// until fresh updates replace them (use [`Session::rewind`] to also
    /// reset the merged results).
    pub fn stop(&mut self) -> Result<(), CoreError> {
        self.check_open()?;
        for slot in self.engines.iter_mut().filter(|s| s.alive) {
            slot.handle.send(EngineCommand::Stop);
            if let Some((_, done)) = &mut slot.part {
                *done = false;
            }
            slot.part_progress = 0;
            slot.budget_left = None;
        }
        self.state = RunState::Stopped;
        self.journal_event(JournalEvent::RunStopped);
        Ok(())
    }

    /// Rewind to the start of the dataset: all parts go back to record 0,
    /// merged results reset. Staging halts the engines and moves them to
    /// the new epoch; updates published before the re-stage carry the old
    /// epoch and are dropped.
    pub fn rewind(&mut self) -> Result<(), CoreError> {
        self.check_open()?;
        self.restage();
        self.journal_event(JournalEvent::Rewound);
        Ok(())
    }

    fn absorb(&mut self, ev: EngineEvent) {
        match ev {
            EngineEvent::Ready { .. } => {}
            EngineEvent::CodeLoaded { .. } => {}
            EngineEvent::CodeError {
                engine,
                epoch,
                message,
            } => {
                if epoch != self.epoch {
                    return;
                }
                self.failures.push(FailureRecord {
                    engine,
                    part: None,
                    epoch,
                    message: format!("code error: {message}"),
                    at: SystemTime::now(),
                });
            }
            EngineEvent::Update { part, update } => {
                if update.epoch != self.epoch {
                    // In flight when the run was reset; the part ids have
                    // been reused by the new epoch, so merging this would
                    // silently re-pollute the fresh results.
                    return;
                }
                if self.queue.is_complete(part) {
                    // Another engine already completed this part — this is
                    // the loser of a speculative race; first completion
                    // wins and the late update is dropped.
                    return;
                }
                let mut completion: Option<CompletionOutcome> = None;
                if let Some(slot) = self.engines.get_mut(update.engine) {
                    let mut newly_done = false;
                    if let Some((pid, done)) = &mut slot.part {
                        if *pid == part {
                            newly_done = update.done && !*done;
                            *done = update.done;
                        }
                    }
                    // Progress delta against the last cumulative stamp
                    // feeds the throughput ledger and the run-N budget.
                    let delta = update.processed.saturating_sub(slot.part_progress);
                    slot.part_progress = update.processed;
                    if delta > 0 {
                        self.ledger
                            .on_progress(update.engine, delta, Instant::now());
                    }
                    if let Some(b) = &mut slot.budget_left {
                        *b = b.saturating_sub(delta as usize);
                    }
                    // Count a part into the engine's completed tally only
                    // on the not-done -> done transition, so a re-published
                    // done update cannot inflate registry progress.
                    if newly_done {
                        slot.completed_records += update.total;
                        completion = Some(self.queue.complete(part, update.engine));
                    }
                    let total = if update.done {
                        slot.completed_records
                    } else {
                        slot.completed_records + update.processed
                    };
                    self.registry.update_worker(
                        self.id,
                        update.engine,
                        if update.done {
                            WorkerState::Idle
                        } else {
                            WorkerState::Busy
                        },
                        Some(total),
                    );
                }
                let newly_completed = completion.is_some();
                if let Some(outcome) = completion {
                    if outcome.winner_was_speculative {
                        self.stats.speculations_won += 1;
                    }
                    // Losing runners stop crunching a part that is already
                    // complete; their registry progress drops back to the
                    // parts they actually completed so the part's records
                    // are counted exactly once, under the winner.
                    for loser in outcome.losers {
                        if let Some(slot) = self.engines.get_mut(loser) {
                            if slot.part.map(|(p, _)| p) == Some(part) {
                                slot.part = None;
                                slot.part_progress = 0;
                                slot.handle.send(EngineCommand::Stop);
                                self.registry.update_worker(
                                    self.id,
                                    loser,
                                    WorkerState::Idle,
                                    Some(slot.completed_records),
                                );
                            }
                        }
                    }
                }
                let engine = update.engine;
                let journaled = self.journal.is_some().then(|| update.clone());
                let outcome = self.aida.publish(part, update);
                // Journal the publish exactly as the result plane saw it
                // (the completion record follows its done checkpoint, so a
                // replayed completion is always backed by durable results).
                // Only after the plane has it: an append can compact the
                // log down to a snapshot of the session, and a snapshot
                // taken before the publish would erase the update.
                if let Some(update) = journaled {
                    self.journal_event(JournalEvent::ResultUpdate { part, update });
                    if newly_completed {
                        self.journal_event(JournalEvent::PartCompleted {
                            part,
                            epoch: self.epoch,
                        });
                    }
                }
                if outcome == PublishOutcome::NeedsResync {
                    // The delta stream for this part desynced (seq gap,
                    // reassignment, invalidation). Ask the engine for a
                    // full-tree checkpoint; until it lands the manager
                    // keeps serving the last consistent accumulator.
                    if let Some(slot) = self.engines.get(engine) {
                        if slot.alive {
                            slot.handle.send(EngineCommand::Checkpoint);
                        }
                    }
                }
            }
            EngineEvent::Failed {
                engine,
                part,
                epoch,
                message,
            } => {
                if epoch != self.epoch {
                    return;
                }
                // Spend the retry budget before declaring the engine dead:
                // the part is re-queued either way (dispatch_pending will
                // hand it back to this engine, or to a survivor).
                let retry = self
                    .engines
                    .get(engine)
                    .map(|s| s.alive && s.retries_used < self.config.max_part_retries)
                    .unwrap_or(false);
                self.failures.push(FailureRecord {
                    engine,
                    part,
                    epoch,
                    message,
                    at: SystemTime::now(),
                });
                if let Some(slot) = self.engines.get_mut(engine) {
                    slot.part = None;
                    slot.part_progress = 0;
                    if retry {
                        slot.retries_used += 1;
                    } else {
                        slot.alive = false;
                    }
                }
                self.registry.update_worker(
                    self.id,
                    engine,
                    if retry {
                        WorkerState::Idle
                    } else {
                        WorkerState::Failed
                    },
                    None,
                );
                if let Some(p) = part {
                    // With a speculative duplicate still running the part,
                    // neither invalidation nor re-queueing is needed — the
                    // survivor will complete it.
                    let others_running = self.queue.release(p, engine);
                    if !others_running && !self.queue.is_complete(p) {
                        self.aida.invalidate(p);
                        self.queue.requeue(p);
                        self.journal_event(JournalEvent::PartInvalidated { part: p });
                    }
                }
            }
            EngineEvent::Log {
                engine,
                epoch,
                message,
            } => {
                if epoch != self.epoch {
                    return;
                }
                self.logs.push((engine, message));
            }
        }
    }

    /// Hand queued parts to living engines whose current part is done (or
    /// who have none), then — under `WorkStealing` with a dry queue —
    /// consider speculative re-execution of a straggler's part.
    fn dispatch_pending(&mut self) {
        let epoch = self.epoch;
        for (idx, slot) in self.engines.iter_mut().enumerate() {
            if self.queue.pending_len() == 0 {
                break;
            }
            if !slot.alive {
                continue;
            }
            let idle = match slot.part {
                None => true,
                Some((_, done)) => done,
            };
            // An exhausted run-N budget parks the engine until the next
            // run()/run_events() refills it.
            if !idle || slot.budget_left == Some(0) {
                continue;
            }
            let Some(part) = self.queue.pop(idx) else {
                break;
            };
            slot.handle.send(EngineCommand::AssignPart {
                part,
                records: self.parts[part as usize].clone(),
                columns: self.part_columns[part as usize].clone(),
                epoch,
            });
            slot.part = Some((part, false));
            slot.part_progress = 0;
            if self.state == RunState::Running {
                match slot.budget_left {
                    Some(b) => slot.handle.send(EngineCommand::RunN(b)),
                    None => slot.handle.send(EngineCommand::Run),
                };
            }
            if self.config.scheduler.is_pull() {
                self.stats.parts_stolen += 1;
            }
        }
        if self.config.scheduler == SchedulerPolicy::WorkStealing
            && self.state == RunState::Running
            && self.queue.pending_len() == 0
        {
            self.speculate_straggler();
        }
    }

    /// Speculative straggler re-execution: when the queue is dry but some
    /// engine lags the median throughput by more than `straggler_factor`,
    /// re-issue its current part to an idle engine. At most one duplicate
    /// per part; first completion wins (see [`PartQueue`]).
    fn speculate_straggler(&mut self) {
        let Some(median) = self.ledger.median_rate() else {
            return;
        };
        let factor = self.config.straggler_factor.max(1.0);
        let mut straggler: Option<(EngineId, PartId, f64)> = None;
        for (idx, slot) in self.engines.iter().enumerate() {
            if !slot.alive {
                continue;
            }
            let Some((pid, false)) = slot.part else {
                continue;
            };
            let rate = self.ledger.rate(idx);
            if rate > 0.0
                && rate * factor < median
                && straggler.is_none_or(|(_, _, slowest)| rate < slowest)
            {
                straggler = Some((idx, pid, rate));
            }
        }
        let Some((victim, part, _)) = straggler else {
            return;
        };
        let helper = self.engines.iter().enumerate().find_map(|(i, s)| {
            if i == victim || !s.alive || s.budget_left == Some(0) {
                return None;
            }
            match s.part {
                None | Some((_, true)) => Some(i),
                Some((_, false)) => None,
            }
        });
        let Some(helper) = helper else {
            return;
        };
        if !self.queue.speculate(part, helper) {
            return;
        }
        let epoch = self.epoch;
        let slot = &mut self.engines[helper];
        slot.handle.send(EngineCommand::AssignPart {
            part,
            records: self.parts[part as usize].clone(),
            columns: self.part_columns[part as usize].clone(),
            epoch,
        });
        slot.part = Some((part, false));
        slot.part_progress = 0;
        match slot.budget_left {
            Some(b) => slot.handle.send(EngineCommand::RunN(b)),
            None => slot.handle.send(EngineCommand::Run),
        };
        self.stats.parts_speculated += 1;
    }

    /// Scheduler counters plus a fresh per-engine throughput snapshot.
    fn sched_snapshot(&self) -> SchedStats {
        SchedStats {
            engine_rate: self.ledger.rates(),
            ..self.stats.clone()
        }
    }

    /// Current scheduler statistics (also embedded in every
    /// [`SessionStatus`] from [`Session::poll`]).
    pub fn sched_stats(&self) -> SchedStats {
        self.sched_snapshot()
    }

    /// Current staging-plane statistics (also embedded in every
    /// [`SessionStatus`] from [`Session::poll`]): split-cache hits,
    /// parts/bytes/chunks moved, retries, and the last stage's phase
    /// timings.
    pub fn staging_stats(&self) -> StagingStats {
        self.plane.stats()
    }

    /// Arm a transfer fault plan on the staging plane (tests / chaos
    /// drills): the next [`Session::select_dataset`] sees its part
    /// transfers fail per the plan, retried within
    /// [`crate::IpaConfig::stage_retries`] and surfacing a structured
    /// [`CoreError::StagingFailure`] beyond it.
    pub fn inject_stage_faults(&mut self, plan: StageFaultPlan) {
        self.plane.inject_faults(plan);
    }

    /// Fair-share preemption point: when the pool has asked this session
    /// to give engines back, return idle leases (no part assigned, or the
    /// assigned part is complete) here, at the poll boundary. A part in
    /// flight is never interrupted — its lease goes back at the next part
    /// boundary — and the session always keeps at least one engine, so a
    /// preempted tenant is slowed, never starved.
    fn honor_revocations(&mut self) {
        let Some(pool) = &self.pool else { return };
        let mut wanted = pool.revocations_requested(self.id);
        if wanted == 0 {
            return;
        }
        let mut alive = self.engines_alive();
        let mut released = false;
        for (idx, slot) in self.engines.iter_mut().enumerate() {
            if wanted == 0 || alive <= 1 {
                break;
            }
            if !slot.alive {
                continue;
            }
            let at_boundary = match slot.part {
                None => true,
                Some((_, done)) => done,
            };
            if !at_boundary {
                continue;
            }
            // Shutdown on a leased handle returns the lease to the pool
            // (the engine thread survives, parked for the next tenant).
            slot.handle.shutdown();
            slot.alive = false;
            slot.part = None;
            slot.part_progress = 0;
            self.registry
                .update_worker(self.id, idx, WorkerState::Shutdown, None);
            self.released_engines += 1;
            alive -= 1;
            wanted -= 1;
            released = true;
        }
        if released {
            let engines = self.engines.len() - self.released_engines;
            self.journal_event(JournalEvent::LeaseChanged { engines });
        }
    }

    /// Drain engine events, run failure recovery and work dispatch, and
    /// return a status snapshot. This is the client's polling entry point.
    pub fn poll(&mut self) -> Result<SessionStatus, CoreError> {
        self.check_open()?;
        loop {
            match self.events.try_recv() {
                Ok(ev) => self.absorb(ev),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break,
            }
        }
        self.honor_revocations();
        self.dispatch_pending();

        let parts_total = self.parts.len();
        let parts_done = self.aida.parts_done();
        if parts_total > 0 && parts_done == parts_total && self.state == RunState::Running {
            self.state = RunState::Finished;
        }
        if self.state == RunState::Running && self.engines_alive() == 0 {
            return Err(CoreError::AllEnginesFailed);
        }

        Ok(SessionStatus {
            state: self.state,
            records_processed: self.aida.records_processed(),
            records_total: self.parts.iter().map(|p| p.len() as u64).sum(),
            parts_done,
            parts_total,
            engines_alive: self.engines_alive(),
            epoch: self.epoch,
            sched: self.sched_snapshot(),
            results: self.aida.stats(),
            staging: self.plane.stats(),
            new_logs: std::mem::take(&mut self.logs),
        })
    }

    /// Merged results as of the last poll, served from the manager's
    /// cached snapshot: a poll with no new updates since the last one
    /// performs zero merges and returns the same [`Arc`].
    pub fn results(&mut self) -> Result<Arc<Tree>, CoreError> {
        let before = self.aida.result_version();
        let snap = self.aida.snapshot()?;
        let after = self.aida.result_version();
        if after != before {
            // Mark each actual re-materialization so the recovered
            // `result_version` (and every client's cached copy keyed on
            // it) stays valid across a crash.
            self.journal_event(JournalEvent::ResultVersion { version: after });
        }
        Ok(snap)
    }

    /// Version of the cached merged snapshot; bumps only when the visible
    /// merged results actually change. Clients compare it against a cached
    /// copy to skip re-fetching (and re-rendering) unchanged results.
    pub fn result_version(&self) -> u64 {
        self.aida.result_version()
    }

    /// Result-plane counters (also embedded in every [`SessionStatus`]).
    pub fn result_stats(&self) -> ResultPlaneStats {
        self.aida.stats()
    }

    /// Merged results recomputed flat from scratch, ignoring the snapshot
    /// cache — the reference the cached plane is validated against.
    pub fn results_flat(&mut self) -> Result<Tree, CoreError> {
        self.aida.merged()
    }

    /// Merged results through the two-level merger (paper §2.5 extension),
    /// recomputed from scratch (the cached [`Session::results`] path uses
    /// the same scheme incrementally).
    pub fn results_hierarchical(&mut self, fan_in: usize) -> Result<Tree, CoreError> {
        self.aida.merged_hierarchical(fan_in)
    }

    /// Poll until the run finishes (or fails). If the deadline passes
    /// first, returns [`CoreError::Timeout`] carrying the last status
    /// snapshot — a timeout is never mistakable for success.
    pub fn wait_finished(&mut self, timeout: Duration) -> Result<SessionStatus, CoreError> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.poll()?;
            if status.state == RunState::Finished {
                return Ok(status);
            }
            if Instant::now() > deadline {
                return Err(CoreError::Timeout(Some(status)));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Estimate what staging + analyzing the *currently selected* dataset
    /// would cost on a 2006-calibre grid site: bridges the live framework
    /// to the `ipa-simgrid` cost model using the session's real dataset
    /// size and engine count.
    pub fn staging_report(
        &self,
        cal: &ipa_simgrid::PaperCalibration,
    ) -> Result<ipa_simgrid::StageBreakdown, CoreError> {
        let ds = self.dataset.as_ref().ok_or(CoreError::NoDataset)?;
        Ok(ipa_simgrid::simulate_session(
            ds.size_mb(),
            self.engines_alive().max(1),
            cal,
        ))
    }

    /// Failure injection (tests / chaos drills): make engine `engine` die
    /// after processing `after_records` more records. The session will
    /// detect the failure at poll time and re-queue the engine's part.
    pub fn inject_failure(&mut self, engine: EngineId, after_records: u64) {
        if let Some(slot) = self.engines.get(engine) {
            slot.handle.send(EngineCommand::FailAfter(after_records));
        }
    }

    /// Straggler injection (tests / benches): throttle engine `engine` to
    /// `factor ×` its natural per-batch compute time (≤ 1.0 restores full
    /// speed). The scheduler observes the slowdown through the throughput
    /// ledger exactly as it would a genuinely slow node.
    pub fn inject_speed_factor(&mut self, engine: EngineId, factor: f64) {
        if let Some(slot) = self.engines.get(engine) {
            slot.handle.send(EngineCommand::Throttle(factor));
        }
    }

    /// End the session: engines shut down and join (paper §2.3: engines
    /// "should be started for each session and be shutdown at the end of a
    /// session").
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        for slot in &mut self.engines {
            slot.handle.shutdown();
            slot.alive = false;
        }
        self.registry.close_session(self.id);
        self.closed = true;
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close();
    }
}
