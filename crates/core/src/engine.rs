//! Analysis engines.
//!
//! "Analysis engines are processes that accept a dataset and an analysis
//! script and analyze the dataset using the script to produce a result"
//! (§2). Each engine here is one OS thread doing *real* computation over
//! its staged dataset part, with the paper's interactive controls: run,
//! pause, stop, rewind, run-N-events, and dynamic code reload. Engines
//! publish cumulative partial results for their current part every
//! `publish_every` records — the feedback stream that makes the system
//! interactive.
//!
//! A test/failure-injection hook ([`EngineCommand::FailAfter`]) makes an
//! engine die after N more records, which the session uses to exercise
//! part re-queuing.

use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use ipa_aida::Tree;
use ipa_dataset::{PartColumns, RecordBatch};
use ipa_script::{AidaHost, Host, ScriptBackend, ScriptFusion};

use crate::aida_manager::{PartPayload, PartUpdate};
use crate::analyzer::{instantiate_code, AnalysisCode, Analyzer, NativeRegistry};
use crate::error::CoreError;

/// Engine identifier within a session.
pub type EngineId = usize;
/// Dataset-part identifier within a session.
pub type PartId = u64;

/// Session-wide run-epoch generation counter. Bumped by the session on
/// every control-plane reset (`select_dataset`, `load_code`, `rewind`);
/// engines stamp it into every event so the session and the AIDA manager
/// can drop updates that belong to a superseded run.
pub type Epoch = u64;

/// Commands a session sends to an engine.
pub enum EngineCommand {
    /// Ship analysis code (compiled/validated engine-side, like the
    /// managing class loader).
    LoadCode {
        /// The code to compile and instantiate.
        code: AnalysisCode,
        /// Run epoch this load belongs to.
        epoch: Epoch,
    },
    /// Stage a dataset part onto the engine.
    AssignPart {
        /// Part id (merge key).
        part: PartId,
        /// The records: a view into the published dataset, not a copy.
        records: RecordBatch,
        /// Columnar transcode of `records` when the data plane staged one
        /// (`DataLayout::Columnar`): the engine builds its chunks as it
        /// first reads them, unless another holder of the same
        /// `PartColumns` already has. `None` keeps the row path.
        columns: Option<Arc<PartColumns>>,
        /// Run epoch this assignment belongs to.
        epoch: Epoch,
    },
    /// Start / resume processing to the end of the part.
    Run,
    /// Process at most this many further records, then pause.
    RunN(usize),
    /// Pause after the current batch (a later `Run` resumes mid-part).
    Pause,
    /// Stop: halt *and drop the position* — a later `Run` restarts the
    /// current part from record 0 with fresh results. Unlike `Rewind`,
    /// nothing is published, so previously merged results stay visible.
    Stop,
    /// Restart the current part from record 0 with fresh results and a
    /// fresh analyzer instance.
    Rewind,
    /// Failure injection: abort with an error after N more records. The
    /// fault is consumed when it fires, so a re-assigned part succeeds.
    FailAfter(u64),
    /// Straggler injection: multiply this engine's per-batch compute time
    /// by the given factor (the engine sleeps `(factor − 1) ×` the time
    /// each batch took). Values ≤ 1.0 restore full speed. Used by the
    /// scheduler benches and `speed_factors` config to make slow nodes
    /// reproducible.
    Throttle(f64),
    /// Resync request from the result plane: force the next publish to be
    /// a full-tree checkpoint (and publish immediately if a part is
    /// staged). Sent by the session when the AIDA manager rejects a delta
    /// it cannot apply safely.
    Checkpoint,
    /// Re-lease the engine to a new owner: wipe *all* per-session state
    /// (code, analyzer, AIDA host, part, epoch, throttle, injected
    /// faults, publish baseline), take on a new engine id, and redirect
    /// events to the new owner's channel — then announce `Ready` there.
    /// Because commands are processed strictly in order, every event the
    /// previous owner could still drain precedes the rebind and every
    /// event after it belongs to the new owner: a rebound engine is
    /// indistinguishable from a freshly spawned one.
    Rebind {
        /// Engine id within the new owning session.
        id: EngineId,
        /// The new owner's event channel.
        events: Sender<EngineEvent>,
    },
    /// Terminate the engine thread.
    Shutdown,
}

/// Events an engine sends back.
#[derive(Debug)]
pub enum EngineEvent {
    /// Engine thread is up (the paper's "ready signal").
    Ready {
        /// Which engine.
        engine: EngineId,
    },
    /// Code compiled and loaded.
    CodeLoaded {
        /// Which engine.
        engine: EngineId,
        /// Run epoch the load belonged to.
        epoch: Epoch,
    },
    /// Code failed to compile/instantiate.
    CodeError {
        /// Which engine.
        engine: EngineId,
        /// Run epoch the load belonged to.
        epoch: Epoch,
        /// Compiler/loader message.
        message: String,
    },
    /// A partial-result publication for a part (epoch is stamped inside
    /// the [`PartUpdate`]).
    Update {
        /// Part id (merge key).
        part: PartId,
        /// The update payload.
        update: PartUpdate,
    },
    /// The engine failed (analyzer error or injected fault) and dropped
    /// its part.
    Failed {
        /// Which engine.
        engine: EngineId,
        /// The part it was processing, if any.
        part: Option<PartId>,
        /// Run epoch the failure belongs to.
        epoch: Epoch,
        /// Failure description.
        message: String,
    },
    /// A `log()` call from user code.
    Log {
        /// Which engine.
        engine: EngineId,
        /// Run epoch the log was emitted under.
        epoch: Epoch,
        /// Message text.
        message: String,
    },
}

struct CurrentPart {
    id: PartId,
    records: RecordBatch,
    columns: Option<Arc<PartColumns>>,
    pos: usize,
    done: bool,
}

struct EngineWorker {
    id: EngineId,
    publish_every: usize,
    /// Publish a full-tree checkpoint every this-many publishes; the
    /// publishes in between ship deltas. 1 = every publish is a
    /// checkpoint (the legacy full-clone behavior).
    checkpoint_every: usize,
    registry: NativeRegistry,
    /// Script execution backend handed to `instantiate_code` (native
    /// analyzers ignore it).
    backend: ScriptBackend,
    /// Script fusion level handed to `instantiate_code` alongside the
    /// backend (superinstructions and/or the batch kernel).
    fusion: ScriptFusion,
    events: Sender<EngineEvent>,
    commands: Receiver<EngineCommand>,

    code: Option<AnalysisCode>,
    analyzer: Option<Box<dyn Analyzer>>,
    host: AidaHost,
    needs_init: bool,
    part: Option<CurrentPart>,
    running: bool,
    budget: Option<usize>,
    fail_after: Option<u64>,
    /// Compute-time multiplier; > 1.0 makes this engine a straggler.
    speed_factor: f64,
    /// Latest run epoch seen from the session (via LoadCode/AssignPart);
    /// stamped into every outgoing event.
    epoch: Epoch,
    /// Snapshot of the tree as of the previous publish — the baseline the
    /// next delta is computed against.
    baseline: Tree,
    /// Publish sequence number for the current part assignment.
    seq: u64,
    /// Publishes since the last checkpoint.
    since_checkpoint: usize,
    /// Force the next publish to be a checkpoint (resync request).
    force_checkpoint: bool,
}

enum Disposition {
    Continue,
    Shutdown,
}

/// Drive rows `range` of a part through `analyzer`: one
/// [`Analyzer::process_batch`] call under the row layout, one per chunk the
/// range touches under the columnar one — each chunk transcoded by whoever
/// reaches it first, usually right here. Returns the record-exact count
/// processed and the first error, which stops the walk.
fn process_range(
    analyzer: &mut dyn Analyzer,
    records: &RecordBatch,
    columns: Option<&PartColumns>,
    range: Range<usize>,
    host: &mut dyn Host,
) -> (usize, Option<String>) {
    let Some(columns) = columns else {
        return analyzer.process_batch(records, None, range, host);
    };
    let mut pos = range.start;
    while pos < range.end {
        let (c0, chunk) = columns.chunk_for(pos);
        let hi = range.end.min(c0 + chunk.records.len());
        let (n, error) = analyzer.process_batch(
            &chunk.records,
            chunk.columns.as_ref(),
            pos - c0..hi - c0,
            host,
        );
        pos += n;
        if error.is_some() || pos < hi {
            return (pos - range.start, error);
        }
    }
    (pos - range.start, None)
}

impl EngineWorker {
    /// Reset the delta stream: the next publish will be a checkpoint.
    /// Called whenever the cumulative tree restarts (new part, new code,
    /// stop, rewind) so the manager can never apply a delta across a
    /// baseline discontinuity.
    fn reset_publish_state(&mut self) {
        self.baseline = Tree::new();
        self.seq = 0;
        self.since_checkpoint = 0;
        self.force_checkpoint = false;
    }

    fn publish(&mut self) {
        let Some(part) = &self.part else { return };
        // Invariant: the first publish of a part assignment and every
        // `done` publish are checkpoints, so the manager always has a
        // baseline to apply deltas to and final results never ride on a
        // fragile delta chain.
        let checkpoint = self.force_checkpoint
            || part.done
            || self.seq == 0
            || self.since_checkpoint + 1 >= self.checkpoint_every;
        let payload = if checkpoint {
            self.force_checkpoint = false;
            self.since_checkpoint = 0;
            self.baseline = self.host.tree.clone();
            PartPayload::Checkpoint(self.host.tree.clone())
        } else {
            let delta = self.host.tree.diff_since(&self.baseline);
            // Roll the baseline forward by the same delta the manager will
            // apply (cheaper than a full clone: unchanged objects are
            // untouched). Failure cannot happen for a self-produced delta;
            // fall back to a clone rather than desync silently.
            if self.baseline.apply_delta(&delta).is_err() {
                self.baseline = self.host.tree.clone();
            }
            self.since_checkpoint += 1;
            PartPayload::Delta(delta)
        };
        let update = PartUpdate {
            engine: self.id,
            epoch: self.epoch,
            seq: self.seq,
            processed: part.pos as u64,
            total: part.records.len() as u64,
            payload,
            done: part.done,
        };
        self.seq += 1;
        let _ = self.events.send(EngineEvent::Update {
            part: part.id,
            update,
        });
    }

    fn drain_logs(&mut self) {
        for message in self.host.messages.drain(..) {
            let _ = self.events.send(EngineEvent::Log {
                engine: self.id,
                epoch: self.epoch,
                message,
            });
        }
    }

    fn fresh_analyzer(&mut self) -> Result<(), String> {
        let Some(code) = &self.code else {
            return Err("no code loaded".to_string());
        };
        match instantiate_code(code, &self.registry, self.backend, self.fusion) {
            Ok(a) => {
                self.analyzer = Some(a);
                self.needs_init = true;
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn fail(&mut self, message: String) {
        let part = self.part.as_ref().map(|p| p.id);
        let _ = self.events.send(EngineEvent::Failed {
            engine: self.id,
            part,
            epoch: self.epoch,
            message,
        });
        self.part = None;
        self.running = false;
        self.budget = None;
        self.reset_publish_state();
        // An injected fault is consumed by firing: a re-assigned part must
        // be able to succeed on retry.
        self.fail_after = None;
    }

    fn handle(&mut self, cmd: EngineCommand) -> Disposition {
        match cmd {
            EngineCommand::LoadCode { code, epoch } => {
                self.epoch = epoch;
                self.code = Some(code);
                match self.fresh_analyzer() {
                    Ok(()) => {
                        // New code restarts the current part from zero and
                        // waits for an explicit Run.
                        self.host = AidaHost::new();
                        self.reset_publish_state();
                        if let Some(p) = &mut self.part {
                            p.pos = 0;
                            p.done = false;
                        }
                        self.running = false;
                        self.budget = None;
                        let _ = self.events.send(EngineEvent::CodeLoaded {
                            engine: self.id,
                            epoch: self.epoch,
                        });
                    }
                    Err(message) => {
                        self.analyzer = None;
                        let _ = self.events.send(EngineEvent::CodeError {
                            engine: self.id,
                            epoch: self.epoch,
                            message,
                        });
                    }
                }
            }
            EngineCommand::AssignPart {
                part,
                records,
                columns,
                epoch,
            } => {
                self.epoch = epoch;
                self.part = Some(CurrentPart {
                    id: part,
                    records,
                    columns,
                    pos: 0,
                    done: false,
                });
                self.host = AidaHost::new();
                self.reset_publish_state();
                // A freshly staged part waits for an explicit Run; without
                // this, a rewind/select racing a running engine would keep
                // it crunching while the session believes it is idle.
                self.running = false;
                self.budget = None;
                if self.code.is_some() {
                    if let Err(message) = self.fresh_analyzer() {
                        self.fail(message);
                    }
                }
            }
            EngineCommand::Run => {
                self.budget = None;
                self.running = true;
            }
            EngineCommand::RunN(n) => {
                self.budget = Some(n);
                self.running = true;
            }
            EngineCommand::Pause => {
                self.running = false;
                self.publish();
            }
            EngineCommand::Stop => {
                // Halt and drop the position: a later Run restarts the part
                // from record 0. Nothing is published — merged results from
                // before the stop stay visible at the manager.
                self.running = false;
                self.budget = None;
                self.host = AidaHost::new();
                self.reset_publish_state();
                if let Some(p) = &mut self.part {
                    p.pos = 0;
                    p.done = false;
                }
                if self.code.is_some() {
                    if let Err(message) = self.fresh_analyzer() {
                        self.fail(message);
                    }
                }
            }
            EngineCommand::Rewind => {
                self.host = AidaHost::new();
                self.reset_publish_state();
                if let Some(p) = &mut self.part {
                    p.pos = 0;
                    p.done = false;
                }
                self.running = false;
                self.budget = None;
                if self.code.is_some() {
                    if let Err(message) = self.fresh_analyzer() {
                        self.fail(message);
                    }
                }
                self.publish();
            }
            EngineCommand::FailAfter(n) => {
                self.fail_after = Some(n);
            }
            EngineCommand::Throttle(f) => {
                self.speed_factor = if f > 1.0 { f } else { 1.0 };
            }
            EngineCommand::Checkpoint => {
                self.force_checkpoint = true;
                if self.part.is_some() {
                    self.publish();
                }
            }
            EngineCommand::Rebind { id, events } => {
                // Full per-session reset — must leave the worker exactly as
                // `EngineHandle::spawn` builds it (bit-identity of pooled
                // vs fresh engines rests on this list being complete).
                self.id = id;
                self.events = events;
                self.code = None;
                self.analyzer = None;
                self.host = AidaHost::new();
                self.needs_init = true;
                self.part = None;
                self.running = false;
                self.budget = None;
                self.fail_after = None;
                self.speed_factor = 1.0;
                self.epoch = 0;
                self.reset_publish_state();
                let _ = self.events.send(EngineEvent::Ready { engine: self.id });
            }
            EngineCommand::Shutdown => return Disposition::Shutdown,
        }
        Disposition::Continue
    }

    /// Process up to one publish batch; returns false when there is nothing
    /// (more) to run.
    fn step(&mut self) -> bool {
        if !self.running {
            return false;
        }
        let Some(part) = &self.part else {
            self.running = false;
            return false;
        };
        if part.done {
            self.running = false;
            return false;
        }
        // NOTE: an empty part (or pos at end) still falls through so that
        // init()/end() run and the `done` update is published.
        if self.analyzer.is_none() {
            self.fail("run requested before analysis code was loaded".to_string());
            return false;
        }

        // Lazily run init() at the start of the part.
        if self.needs_init {
            let mut analyzer = self.analyzer.take().expect("checked above");
            let r = analyzer.init(&mut self.host);
            self.analyzer = Some(analyzer);
            self.drain_logs();
            if let Err(e) = r {
                self.fail(format!("init failed: {e}"));
                return false;
            }
            self.needs_init = false;
        }

        // Determine batch size from publish interval, RunN budget, and
        // injected failure point.
        let part = self.part.as_ref().expect("checked above");
        let remaining = part.records.len() - part.pos;
        let mut batch = self.publish_every.min(remaining);
        if let Some(b) = self.budget {
            batch = batch.min(b);
        }
        // `<=` so that a budget equal to the batch (e.g. FailAfter(remaining)
        // or FailAfter(0)) still truncates and fires deterministically once
        // the budget is consumed, instead of silently finishing the part.
        let mut fail_at: Option<usize> = None;
        if let Some(f) = self.fail_after {
            if (f as usize) <= batch {
                batch = f as usize;
                fail_at = Some(batch);
            }
        }

        let records = part.records.clone();
        let columns = part.columns.clone();
        let start = part.pos;
        let batch_started = Instant::now();
        let mut analyzer = self.analyzer.take().expect("checked above");
        // Hand the whole publish batch to the analyzer at once: script
        // analyzers share the part's records instead of deep-copying them,
        // and vectorizing analyzers turn it into bulk histogram fills. The
        // returned count stays record-exact so FailAfter/RunN/publish
        // accounting is identical across layouts.
        let (processed, error) = process_range(
            analyzer.as_mut(),
            &records,
            columns.as_deref(),
            start..start + batch,
            &mut self.host,
        );
        self.analyzer = Some(analyzer);
        // A throttled engine pays `(factor − 1)×` the real compute time per
        // batch, stretching its wall-clock without changing its results.
        if self.speed_factor > 1.0 && processed > 0 {
            std::thread::sleep(batch_started.elapsed().mul_f64(self.speed_factor - 1.0));
        }
        self.drain_logs();

        if let Some(p) = &mut self.part {
            p.pos += processed;
        }
        if let Some(b) = &mut self.budget {
            *b = b.saturating_sub(processed);
        }
        if let Some(f) = &mut self.fail_after {
            *f = f.saturating_sub(processed as u64);
        }

        if let Some(e) = error {
            self.fail(format!("analysis error: {e}"));
            return false;
        }
        if fail_at.is_some() && self.fail_after == Some(0) {
            self.fail("injected engine fault".to_string());
            return false;
        }

        // Part finished?
        let finished = self
            .part
            .as_ref()
            .map(|p| p.pos >= p.records.len())
            .unwrap_or(false);
        if finished {
            let mut analyzer = self.analyzer.take().expect("still loaded");
            let r = analyzer.end(&mut self.host);
            self.analyzer = Some(analyzer);
            self.drain_logs();
            if let Err(e) = r {
                self.fail(format!("end() failed: {e}"));
                return false;
            }
            if let Some(p) = &mut self.part {
                p.done = true;
            }
            self.running = false;
            self.publish();
            return false;
        }

        self.publish();

        if self.budget == Some(0) {
            self.running = false;
            self.budget = None;
            return false;
        }
        true
    }

    fn run_loop(mut self) {
        let _ = self.events.send(EngineEvent::Ready { engine: self.id });
        loop {
            if self.running {
                // Poll for control commands between batches so pause/stop
                // latency is one batch, then advance.
                loop {
                    match self.commands.try_recv() {
                        Ok(cmd) => {
                            if let Disposition::Shutdown = self.handle(cmd) {
                                return;
                            }
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => return,
                    }
                }
                self.step();
            } else {
                match self.commands.recv() {
                    Ok(cmd) => {
                        if let Disposition::Shutdown = self.handle(cmd) {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
        }
    }
}

/// Client-side handle to a spawned engine.
///
/// Two flavors exist: an *owned* handle (from [`EngineHandle::spawn`])
/// whose `shutdown` terminates and joins the engine thread, and a
/// *leased* handle (from [`EnginePool::lease`](crate::pool::EnginePool::lease))
/// whose `shutdown` instead returns the engine to its pool for re-lease.
/// Sessions treat both identically.
pub struct EngineHandle {
    /// Engine id within the session.
    pub id: EngineId,
    commands: Sender<EngineCommand>,
    thread: Option<JoinHandle<()>>,
    /// Set false once the engine reports a failure.
    pub alive: bool,
    /// Present on leased handles: returning ticket back to the pool.
    lease: Option<crate::pool::LeaseReturn>,
}

impl EngineHandle {
    /// Spawn an engine thread. Events (including the ready signal) arrive
    /// on `events`. `checkpoint_every` controls the delta stream: a
    /// full-tree checkpoint every that-many publishes, deltas in between
    /// (1 = checkpoint every publish, the legacy full-clone behavior).
    /// `backend` picks the IPAScript execution backend for script code and
    /// `fusion` its compile-pipeline fusion level.
    pub fn spawn(
        id: EngineId,
        publish_every: usize,
        checkpoint_every: usize,
        registry: NativeRegistry,
        backend: ScriptBackend,
        fusion: ScriptFusion,
        events: Sender<EngineEvent>,
    ) -> Self {
        let (tx, rx) = unbounded();
        let worker = EngineWorker {
            id,
            publish_every: publish_every.max(1),
            checkpoint_every: checkpoint_every.max(1),
            registry,
            backend,
            fusion,
            events,
            commands: rx,
            code: None,
            analyzer: None,
            host: AidaHost::new(),
            needs_init: true,
            part: None,
            running: false,
            budget: None,
            fail_after: None,
            speed_factor: 1.0,
            epoch: 0,
            baseline: Tree::new(),
            seq: 0,
            since_checkpoint: 0,
            force_checkpoint: false,
        };
        let thread = std::thread::Builder::new()
            .name(format!("ipa-engine-{id}"))
            .spawn(move || worker.run_loop())
            .expect("spawn engine thread");
        EngineHandle {
            id,
            commands: tx,
            thread: Some(thread),
            alive: true,
            lease: None,
        }
    }

    /// Build a handle for an engine leased from a pool: commands go to the
    /// pooled engine's long-lived thread (which has just been rebound to
    /// this session), and `shutdown` returns the lease instead of killing
    /// the thread.
    pub(crate) fn leased(
        id: EngineId,
        commands: Sender<EngineCommand>,
        lease: crate::pool::LeaseReturn,
    ) -> Self {
        EngineHandle {
            id,
            commands,
            thread: None,
            alive: true,
            lease: Some(lease),
        }
    }

    /// Clone of the engine's command channel (for pools, which keep the
    /// owned handle and hand command senders to lessees).
    pub(crate) fn command_sender(&self) -> Sender<EngineCommand> {
        self.commands.clone()
    }

    /// Send a command; returns false if the engine is gone (dead thread or
    /// a leased handle already returned to its pool).
    pub fn send(&self, cmd: EngineCommand) -> bool {
        self.alive && self.commands.send(cmd).is_ok()
    }

    /// Shut the engine down: an owned handle terminates and joins the
    /// thread; a leased handle returns the engine to its pool (the pool
    /// rebinds it away, so this handle can no longer reach it).
    pub fn shutdown(&mut self) {
        if !self.alive && self.thread.is_none() && self.lease.is_none() {
            return;
        }
        self.alive = false;
        if let Some(lease) = self.lease.take() {
            lease.release();
            return;
        }
        let _ = self.commands.send(EngineCommand::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Receive the next event from an engine channel with a deadline.
///
/// A wedged worker becomes [`CoreError::Timeout`]`(None)` instead of a
/// panic on the receiving (manager) thread; a closed channel becomes
/// [`CoreError::EngineGone`] for `engine`.
pub fn recv_event_timeout(
    rx: &Receiver<EngineEvent>,
    engine: EngineId,
    timeout: Duration,
) -> Result<EngineEvent, CoreError> {
    match rx.recv_timeout(timeout) {
        Ok(ev) => Ok(ev),
        Err(RecvTimeoutError::Timeout) => Err(CoreError::Timeout(None)),
        Err(RecvTimeoutError::Disconnected) => Err(CoreError::EngineGone(engine)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::builtin_registry;
    use ipa_dataset::{EventGeneratorConfig, COLUMN_CHUNK};
    use std::time::Duration;

    fn records(n: u64) -> RecordBatch {
        RecordBatch::new(
            EventGeneratorConfig {
                events: n,
                ..Default::default()
            }
            .generate(),
        )
    }

    fn recv_until<F: FnMut(&EngineEvent) -> bool>(
        rx: &Receiver<EngineEvent>,
        mut pred: F,
    ) -> EngineEvent {
        loop {
            let ev = recv_event_timeout(rx, 0, Duration::from_secs(10))
                .expect("engine event within timeout");
            if pred(&ev) {
                return ev;
            }
        }
    }

    #[test]
    fn engine_lifecycle_ready_load_run_done() {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            0,
            100,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        recv_until(&rx, |ev| matches!(ev, EngineEvent::Ready { .. }));
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        recv_until(&rx, |ev| matches!(ev, EngineEvent::CodeLoaded { .. }));
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: records(250),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::Run);
        let done = recv_until(
            &rx,
            |ev| matches!(ev, EngineEvent::Update { update, .. } if update.done),
        );
        let EngineEvent::Update { part, update } = done else {
            unreachable!()
        };
        assert_eq!(part, 0);
        assert_eq!(update.processed, 250);
        assert_eq!(update.total, 250);
        assert!(update
            .checkpoint_tree()
            .expect("done publishes are checkpoints")
            .contains("/higgs/bb_mass"));
        e.shutdown();
    }

    #[test]
    fn partial_updates_arrive_between_batches() -> Result<(), CoreError> {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            1,
            50,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 3,
            records: records(200),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::Run);
        let mut progress = Vec::new();
        loop {
            // A wedged engine surfaces as CoreError::Timeout, not a panic.
            if let EngineEvent::Update { update, .. } =
                recv_event_timeout(&rx, 1, Duration::from_secs(10))?
            {
                progress.push(update.processed);
                if update.done {
                    break;
                }
            }
        }
        assert_eq!(progress, vec![50, 100, 150, 200]);
        e.shutdown();
        Ok(())
    }

    #[test]
    fn run_n_pauses_after_budget() {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            2,
            1000,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: records(500),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::RunN(120));
        let ev = recv_until(&rx, |ev| matches!(ev, EngineEvent::Update { .. }));
        let EngineEvent::Update { update, .. } = ev else {
            unreachable!()
        };
        assert_eq!(update.processed, 120);
        assert!(!update.done);
        // Resume to completion.
        e.send(EngineCommand::Run);
        let done = recv_until(
            &rx,
            |ev| matches!(ev, EngineEvent::Update { update, .. } if update.done),
        );
        let EngineEvent::Update { update, .. } = done else {
            unreachable!()
        };
        assert_eq!(update.processed, 500);
        e.shutdown();
    }

    #[test]
    fn rewind_resets_results() {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            3,
            1000,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: records(100),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::Run);
        recv_until(
            &rx,
            |ev| matches!(ev, EngineEvent::Update { update, .. } if update.done),
        );
        e.send(EngineCommand::Rewind);
        let ev = recv_until(&rx, |ev| matches!(ev, EngineEvent::Update { .. }));
        let EngineEvent::Update { update, .. } = ev else {
            unreachable!()
        };
        assert_eq!(update.processed, 0);
        assert!(!update.done);
        assert_eq!(
            update
                .checkpoint_tree()
                .expect("a rewind publish restarts the stream with a checkpoint")
                .total_entries(),
            0
        );
        // And it can run again to the same completion.
        e.send(EngineCommand::Run);
        let done = recv_until(
            &rx,
            |ev| matches!(ev, EngineEvent::Update { update, .. } if update.done),
        );
        let EngineEvent::Update { update, .. } = done else {
            unreachable!()
        };
        assert_eq!(update.processed, 100);
        e.shutdown();
    }

    #[test]
    fn injected_failure_emits_failed_event() {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            4,
            10,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 9,
            records: records(100),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::FailAfter(25));
        e.send(EngineCommand::Run);
        let ev = recv_until(&rx, |ev| matches!(ev, EngineEvent::Failed { .. }));
        let EngineEvent::Failed { part, message, .. } = ev else {
            unreachable!()
        };
        assert_eq!(part, Some(9));
        assert!(message.contains("injected"));
        e.shutdown();
    }

    #[test]
    fn injected_failure_fires_on_exact_remaining_budget() {
        // FailAfter(remaining): the fault budget equals the records left,
        // so the batch is fully processed and then the fault fires instead
        // of the part silently finishing (regression for the `<` boundary).
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            8,
            1000,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 2,
            records: records(100),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::FailAfter(100));
        e.send(EngineCommand::Run);
        let ev = recv_until(&rx, |ev| {
            matches!(ev, EngineEvent::Failed { .. } | EngineEvent::Update { .. })
        });
        let EngineEvent::Failed { part, message, .. } = ev else {
            panic!("expected Failed before any Update, got {ev:?}");
        };
        assert_eq!(part, Some(2));
        assert!(message.contains("injected"));
        e.shutdown();
    }

    #[test]
    fn injected_failure_fires_on_zero_budget() {
        // FailAfter(0): the engine must die before processing anything.
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            9,
            10,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 4,
            records: records(50),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::FailAfter(0));
        e.send(EngineCommand::Run);
        let ev = recv_until(&rx, |ev| {
            matches!(ev, EngineEvent::Failed { .. } | EngineEvent::Update { .. })
        });
        let EngineEvent::Failed { part, .. } = ev else {
            panic!("expected Failed before any Update, got {ev:?}");
        };
        assert_eq!(part, Some(4));
        e.shutdown();
    }

    #[test]
    fn stop_drops_position_so_run_restarts_the_part() -> Result<(), CoreError> {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            10,
            50,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: records(200),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::RunN(100));
        // Wait until the RunN budget is exhausted (updates at 50, 100).
        recv_until(
            &rx,
            |ev| matches!(ev, EngineEvent::Update { update, .. } if update.processed == 100),
        );
        // Stop (publishes nothing), then Run: the part restarts from 0,
        // so the very next update is 50 — not 150 as a resume would give.
        e.send(EngineCommand::Stop);
        e.send(EngineCommand::Run);
        let mut progress = Vec::new();
        loop {
            if let EngineEvent::Update { update, .. } =
                recv_event_timeout(&rx, 10, Duration::from_secs(10))?
            {
                progress.push(update.processed);
                if update.done {
                    break;
                }
            }
        }
        assert_eq!(progress, vec![50, 100, 150, 200]);
        e.shutdown();
        Ok(())
    }

    #[test]
    fn throttle_changes_speed_not_results() {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            12,
            100,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: records(300),
            columns: None,
            epoch: 0,
        });
        // A throttled engine is slower, never wrong.
        e.send(EngineCommand::Throttle(4.0));
        e.send(EngineCommand::Run);
        let done = recv_until(
            &rx,
            |ev| matches!(ev, EngineEvent::Update { update, .. } if update.done),
        );
        let EngineEvent::Update { update, .. } = done else {
            unreachable!()
        };
        assert_eq!(update.processed, 300);
        assert!(update
            .checkpoint_tree()
            .expect("done publishes are checkpoints")
            .contains("/higgs/bb_mass"));
        e.shutdown();
    }

    #[test]
    fn events_carry_latest_epoch() {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            11,
            100,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 3,
        });
        let ev = recv_until(&rx, |ev| matches!(ev, EngineEvent::CodeLoaded { .. }));
        let EngineEvent::CodeLoaded { epoch, .. } = ev else {
            unreachable!()
        };
        assert_eq!(epoch, 3);
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: records(60),
            columns: None,
            epoch: 5,
        });
        e.send(EngineCommand::Run);
        let done = recv_until(
            &rx,
            |ev| matches!(ev, EngineEvent::Update { update, .. } if update.done),
        );
        let EngineEvent::Update { update, .. } = done else {
            unreachable!()
        };
        assert_eq!(update.epoch, 5);
        e.shutdown();
    }

    #[test]
    fn delta_publishes_between_checkpoints_reconstruct_exactly() {
        use crate::aida_manager::PartPayload;

        // publish_every 50 over 300 records → 6 publishes; checkpoint_every
        // 4 → pattern C D D D C(done forces nothing here: 5th publish is a
        // scheduled checkpoint, 6th is the done checkpoint).
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            13,
            50,
            4,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: records(300),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::Run);
        let mut replayed = Tree::new();
        let mut kinds = Vec::new();
        let mut seqs = Vec::new();
        loop {
            let EngineEvent::Update { update, .. } =
                recv_event_timeout(&rx, 13, Duration::from_secs(10)).unwrap()
            else {
                continue;
            };
            seqs.push(update.seq);
            let done = update.done;
            match update.payload {
                PartPayload::Checkpoint(t) => {
                    kinds.push('C');
                    replayed = t;
                }
                PartPayload::Delta(d) => {
                    kinds.push('D');
                    replayed.apply_delta(&d).expect("delta applies in order");
                }
            }
            if done {
                break;
            }
        }
        // First publish and the done publish are checkpoints; deltas ride
        // in between and the replayed stream equals the final full tree.
        assert_eq!(kinds.first(), Some(&'C'));
        assert_eq!(kinds.last(), Some(&'C'));
        assert!(kinds.contains(&'D'));
        assert_eq!(seqs, (0..kinds.len() as u64).collect::<Vec<_>>());
        assert!(replayed.contains("/higgs/bb_mass"));

        // The replayed tree is bin-for-bin the engine's cumulative tree:
        // re-running the same part with checkpoint_every=1 (full clones)
        // must give the identical final checkpoint.
        let (tx2, rx2) = unbounded();
        let mut e2 = EngineHandle::spawn(
            14,
            50,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx2,
        );
        e2.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e2.send(EngineCommand::AssignPart {
            part: 0,
            records: records(300),
            columns: None,
            epoch: 0,
        });
        e2.send(EngineCommand::Run);
        let done = recv_until(
            &rx2,
            |ev| matches!(ev, EngineEvent::Update { update, .. } if update.done),
        );
        let EngineEvent::Update { update, .. } = done else {
            unreachable!()
        };
        assert_eq!(update.checkpoint_tree().unwrap(), &replayed);
        assert!(replayed.total_entries() > 0);
        e.shutdown();
        e2.shutdown();
    }

    #[test]
    fn checkpoint_command_forces_full_tree_publish() {
        use crate::aida_manager::PartPayload;

        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            15,
            25,
            1000,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Native("higgs-search".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: records(100),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::RunN(50));
        // Publishes at 25 (seq 0, checkpoint) and 50 (seq 1, delta).
        recv_until(
            &rx,
            |ev| matches!(ev, EngineEvent::Update { update, .. } if update.seq == 1),
        );
        // Resync request: the engine republishes immediately, full tree.
        e.send(EngineCommand::Checkpoint);
        let ev = recv_until(&rx, |ev| matches!(ev, EngineEvent::Update { .. }));
        let EngineEvent::Update { update, .. } = ev else {
            unreachable!()
        };
        assert_eq!(update.seq, 2);
        assert!(matches!(update.payload, PartPayload::Checkpoint(_)));
        assert_eq!(update.processed, 50);
        e.shutdown();
    }

    #[test]
    fn bad_script_reports_code_error() {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            5,
            10,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Script("fn broken( {".into()),
            epoch: 0,
        });
        recv_until(&rx, |ev| matches!(ev, EngineEvent::CodeError { .. }));
        e.shutdown();
    }

    #[test]
    fn run_without_code_fails_gracefully() {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            6,
            10,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: records(10),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::Run);
        let ev = recv_until(&rx, |ev| matches!(ev, EngineEvent::Failed { .. }));
        let EngineEvent::Failed { message, .. } = ev else {
            unreachable!()
        };
        assert!(message.contains("before analysis code"));
        e.shutdown();
    }

    #[test]
    fn script_logs_are_forwarded() {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            7,
            10,
            1,
            builtin_registry(),
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: AnalysisCode::Script("fn init() { log(\"booked\"); } fn process(ev) { }".into()),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: records(5),
            columns: None,
            epoch: 0,
        });
        e.send(EngineCommand::Run);
        let ev = recv_until(&rx, |ev| matches!(ev, EngineEvent::Log { .. }));
        let EngineEvent::Log { message, .. } = ev else {
            unreachable!()
        };
        assert_eq!(message, "booked");
        e.shutdown();
    }

    /// Run one part to its end on a fresh engine (after `prelude`, e.g. a
    /// `FailAfter`): the `processed` of every update, and the done
    /// checkpoint — or the failure message if the engine failed first.
    fn run_part(
        code: &AnalysisCode,
        publish_every: usize,
        recs: &RecordBatch,
        columns: Option<Arc<PartColumns>>,
        prelude: Vec<EngineCommand>,
    ) -> (Vec<u64>, Result<Tree, String>) {
        let (tx, rx) = unbounded();
        let mut e = EngineHandle::spawn(
            17,
            publish_every,
            1,
            builtin_registry(),
            ScriptBackend::Vm,
            ScriptFusion::Kernel,
            tx,
        );
        e.send(EngineCommand::LoadCode {
            code: code.clone(),
            epoch: 0,
        });
        e.send(EngineCommand::AssignPart {
            part: 0,
            records: recs.clone(),
            columns,
            epoch: 0,
        });
        for cmd in prelude {
            e.send(cmd);
        }
        e.send(EngineCommand::Run);
        let mut progress = Vec::new();
        let outcome = loop {
            match recv_event_timeout(&rx, 17, Duration::from_secs(30)).unwrap() {
                EngineEvent::Update { update, .. } => {
                    progress.push(update.processed);
                    if update.done {
                        break Ok(update.checkpoint_tree().unwrap().clone());
                    }
                }
                EngineEvent::Failed { message, .. } => break Err(message),
                _ => {}
            }
        };
        e.shutdown();
        (progress, outcome)
    }

    const KERNEL_SCRIPT: &str = "fn init() { h1(\"/s/vis\", 60, 0.0, 600.0); }\n\
         fn process(e) { fill(\"/s/vis\", e.visible_energy); }";
    /// Handing the record itself to a helper keeps the kernel out: every
    /// record goes through the VM and its column binding.
    const VM_SCRIPT: &str = "fn init() { h1(\"/s/vis\", 60, 0.0, 600.0); }\n\
         fn energy(e) { return e.visible_energy; }\n\
         fn process(e) { fill(\"/s/vis\", energy(e)); }";

    #[test]
    fn columnar_assignment_matches_row_results_across_chunk_edges() {
        // Same part, same code, both layouts: the done checkpoints must be
        // bit-identical and the publish cadence must not drift, although
        // batches 6000..9000 and 15000..18000 each straddle a chunk edge.
        let recs = records(20_000);
        for code in [
            AnalysisCode::Native("higgs-search".into()),
            AnalysisCode::Script(KERNEL_SCRIPT.into()),
            AnalysisCode::Script(VM_SCRIPT.into()),
        ] {
            let columns = Arc::new(PartColumns::new(recs.clone()));
            let (row_cadence, row_tree) = run_part(&code, 3000, &recs, None, vec![]);
            let (col_cadence, col_tree) =
                run_part(&code, 3000, &recs, Some(columns.clone()), vec![]);
            assert_eq!(
                row_cadence,
                vec![3000, 6000, 9000, 12000, 15000, 18000, 20000]
            );
            assert_eq!(row_cadence, col_cadence);
            let row_tree = row_tree.unwrap();
            assert_eq!(row_tree, col_tree.unwrap());
            assert!(row_tree.total_entries() > 0);
            assert_eq!(columns.built(), 3);
        }
    }

    #[test]
    fn injected_faults_and_budgets_are_record_exact_at_a_chunk_edge() {
        let recs = records(20_000);
        let code = AnalysisCode::Native("higgs-search".into());
        let columns = Arc::new(PartColumns::new(recs.clone()));
        for fail_at in [COLUMN_CHUNK as u64, COLUMN_CHUNK as u64 + 1] {
            for cols in [None, Some(columns.clone())] {
                let prelude = vec![EngineCommand::FailAfter(fail_at)];
                let (progress, outcome) = run_part(&code, 3000, &recs, cols, prelude);
                // The batch the fault truncates is processed, then dropped
                // unpublished: the last update is the batch before it.
                assert_eq!(progress, vec![3000, 6000], "FailAfter({fail_at})");
                assert!(outcome.unwrap_err().contains("injected"));
            }
        }

        // RunN(8192) pauses exactly on the edge; Run resumes from there.
        for cols in [None, Some(columns.clone())] {
            let (tx, rx) = unbounded();
            let mut e = EngineHandle::spawn(
                18,
                3000,
                1,
                builtin_registry(),
                ScriptBackend::Vm,
                ScriptFusion::Kernel,
                tx,
            );
            e.send(EngineCommand::LoadCode {
                code: code.clone(),
                epoch: 0,
            });
            e.send(EngineCommand::AssignPart {
                part: 0,
                records: recs.clone(),
                columns: cols,
                epoch: 0,
            });
            e.send(EngineCommand::RunN(COLUMN_CHUNK));
            let mut progress = Vec::new();
            while progress.last() != Some(&(COLUMN_CHUNK as u64)) {
                if let EngineEvent::Update { update, .. } =
                    recv_event_timeout(&rx, 18, Duration::from_secs(30)).unwrap()
                {
                    progress.push(update.processed);
                }
            }
            assert_eq!(progress, vec![3000, 6000, 8192]);
            e.send(EngineCommand::Run);
            let done = recv_until(
                &rx,
                |ev| matches!(ev, EngineEvent::Update { update, .. } if update.done),
            );
            let EngineEvent::Update { update, .. } = done else {
                unreachable!()
            };
            assert_eq!(update.processed, 20_000);
            e.shutdown();
        }
    }

    #[test]
    fn an_error_in_the_second_piece_of_a_straddling_batch_is_record_exact() {
        // Record 8500 sits in the second chunk; the batch 6000..9000 reaches
        // it through a second `process_batch` call. The count must be the
        // 2500 records before it, with their fills (and the failing
        // record's own, made before its error) applied — as on the row path.
        let recs = records(20_000);
        let script = "fn init() { h1(\"/s/vis\", 60, 0.0, 600.0); }\n\
             fn process(e) {\n\
                 fill(\"/s/vis\", e.visible_energy);\n\
                 if e.event_id == 8500 { let x = e.no_such_field; }\n\
             }";
        let columns = PartColumns::new(recs.clone());
        let mut outcomes = Vec::new();
        for cols in [None, Some(&columns)] {
            let mut analyzer = instantiate_code(
                &AnalysisCode::Script(script.into()),
                &builtin_registry(),
                ScriptBackend::Vm,
                ScriptFusion::Kernel,
            )
            .unwrap();
            let mut host = AidaHost::new();
            analyzer.init(&mut host).unwrap();
            let (processed, error) =
                process_range(analyzer.as_mut(), &recs, cols, 6000..9000, &mut host);
            assert_eq!(processed, 2500);
            assert!(
                error.as_ref().unwrap().contains("no_such_field"),
                "{error:?}"
            );
            assert_eq!(host.tree.get("/s/vis").unwrap().entries(), 2501);
            outcomes.push((error, host.tree));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(columns.built(), 2, "only the chunks the range touches");
    }
}
