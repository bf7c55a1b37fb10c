//! The pipelined chunked stager.
//!
//! Mirrors the paper's "move parts" structure (§4, Table 2): a *serial*
//! staging-disk read pass cuts each part into chunks of
//! ~[`crate::IpaConfig::stage_chunk_bytes`] bytes, and *parallel* LAN
//! transfer workers move the chunks to the engines' side. A bounded queue
//! between the two provides backpressure: the reader blocks when transfers
//! fall behind, exactly like a staging disk throttled by the site NIC.
//!
//! What travels is a *descriptor* — `(part, sequence number, record
//! range)` — never the records: parts are views into the published
//! dataset, so there is nothing to copy. The stager runs the 2006 site's
//! transfer schedule over the descriptors and checks that what arrived
//! tiles every part; the caller then cuts the views from the plan.
//!
//! With `stage_overlap` on, the reader and the transfer pool run
//! concurrently (the pipelined shape); off, the full read pass completes
//! before the first transfer starts (the paper's eager shape — Table 2's
//! serial read-then-move). Delivery is identical either way.
//!
//! Transfers retry per part with exponential backoff; a
//! [`StageFaultPlan`] injects deterministic failures for chaos tests. A
//! part that exhausts its retry budget aborts the whole stage with a
//! structured [`TerminalFailure`], which [`super::SitePlane`] surfaces as
//! [`crate::CoreError::StagingFailure`].
//!
//! Real wall-clock is the movement of descriptors between threads; the
//! *simulated* times (what the 2006 testbed would have cost) are
//! computed against the same knobs `ipa_simgrid::stage` calibrates:
//! the staging-disk MB/s and the LAN per-stream bandwidth/latency of
//! [`ipa_simgrid::PaperCalibration`].

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crossbeam::channel::bounded;
use ipa_dataset::SplitPlan;
use ipa_simgrid::PaperCalibration;

use crate::config::IpaConfig;

/// Deterministic transfer fault injection: part → number of failing
/// transfer attempts before transfers start succeeding. The plan is armed
/// on the plane and applies afresh to each stage operation. It composes
/// with the per-part retry budget: `failures ≤ stage_retries` is absorbed
/// (counted in [`super::StagingStats::retries`]), more is terminal.
#[derive(Debug, Clone, Default)]
pub struct StageFaultPlan {
    fail_first: HashMap<u64, u32>,
}

impl StageFaultPlan {
    /// Fail the first `times` transfer attempts of `part`.
    pub fn fail_part(mut self, part: u64, times: u32) -> Self {
        self.fail_first.insert(part, times);
        self
    }

    /// True when no faults are armed.
    pub fn is_empty(&self) -> bool {
        self.fail_first.is_empty()
    }
}

/// Pipeline knobs, resolved from [`IpaConfig`] plus the paper-calibrated
/// timing constants.
#[derive(Debug, Clone, Copy)]
pub struct StagerConfig {
    /// Target chunk size in bytes (≥ 1 record per chunk regardless).
    pub chunk_bytes: usize,
    /// Bounded-queue depth between reader and transfer pool.
    pub queue_depth: usize,
    /// Failed transfer attempts absorbed per part before aborting.
    pub retries: u32,
    /// Overlap the serial read with the parallel transfers.
    pub overlap: bool,
    /// Transfer worker threads (parallel LAN streams).
    pub workers: usize,
    /// Simulated staging-disk sequential read bandwidth, MB/s.
    pub disk_mbps: f64,
    /// Simulated LAN per-stream bandwidth, MB/s.
    pub lan_stream_mbps: f64,
    /// Simulated LAN aggregate source cap, MB/s.
    pub lan_aggregate_mbps: f64,
    /// Simulated LAN per-transfer (per-chunk) latency, seconds.
    pub lan_latency_s: f64,
    /// Simulated LAN per-file (per-part) protocol overhead, seconds.
    pub lan_per_file_s: f64,
}

impl StagerConfig {
    /// Resolve from config knobs; simulated rates come from the same 2006
    /// calibration `ipa_simgrid::stage` reproduces Table 2 with.
    pub fn from_config(config: &IpaConfig) -> Self {
        let cal = PaperCalibration::paper2006();
        StagerConfig {
            chunk_bytes: config.stage_chunk_bytes.max(1),
            queue_depth: config.stage_queue_depth.max(1),
            retries: config.stage_retries,
            overlap: config.stage_overlap,
            workers: 4,
            disk_mbps: cal.staging_disk_mbps,
            lan_stream_mbps: cal.network.lan.stream_bw_mbps,
            lan_aggregate_mbps: cal.network.lan.aggregate_bw_mbps,
            lan_latency_s: cal.network.lan.latency_s,
            lan_per_file_s: cal.network.lan.per_file_overhead_s,
        }
    }
}

/// Terminal per-part staging failure (retry budget exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TerminalFailure {
    /// The part whose transfers kept failing.
    pub part: u64,
    /// Failed transfer attempts made for that part (budget + 1).
    pub attempts: u32,
}

/// What one [`Stager::deliver`] run produced.
pub struct StageOutcome {
    /// `Ok` when every part arrived whole (its chunks tile its planned
    /// record range), or the terminal failure that aborted delivery.
    pub result: Result<(), TerminalFailure>,
    /// Successful chunk transfers performed.
    pub chunks_sent: u64,
    /// Failed attempts absorbed by the retry budget.
    pub retries: u64,
    /// Simulated serial staging-disk read pass, seconds.
    pub sim_read_s: f64,
    /// Simulated parallel LAN transfer phase, seconds.
    pub sim_transfer_s: f64,
    /// Simulated total under the configured overlap mode, seconds.
    pub sim_pipelined_s: f64,
    /// `1 − pipelined/(read+transfer)`, the simulated fraction of eager
    /// staging hidden by overlap (0 when overlap is off or nothing can
    /// overlap).
    pub overlap_ratio: f64,
}

/// One chunk in flight between the reader and the transfer pool: which
/// records it stands for, not the records themselves.
struct Chunk {
    part: usize,
    seq: u32,
    records: Range<usize>,
}

/// The chunked transfer pipeline. Construct per stage operation.
pub struct Stager {
    config: StagerConfig,
    faults: HashMap<u64, u32>,
}

impl Stager {
    /// A stager with the given knobs and armed faults.
    pub fn new(config: StagerConfig, faults: &StageFaultPlan) -> Self {
        Stager {
            config,
            faults: faults.fail_first.clone(),
        }
    }

    /// Cut the plan's parts into chunk descriptors, deliver them through
    /// the transfer pool, and check each part's chunks against its range.
    pub fn deliver(self, plan: &SplitPlan) -> StageOutcome {
        let n_parts = plan.ranges.len();
        // Records per chunk for each part, from the plan's byte sizes: a
        // part of B bytes and R records gets ~R·chunk_bytes/B records per
        // chunk (≥ 1). Empty or zero-byte parts go as one chunk.
        let chunk_records: Vec<usize> = plan
            .ranges
            .iter()
            .map(|&(_, count, bytes)| {
                if bytes == 0 || count == 0 {
                    usize::MAX
                } else {
                    ((self.config.chunk_bytes as u64 * count).div_ceil(bytes) as usize).max(1)
                }
            })
            .collect();

        // Chunks arrive out of order across workers; each part reassembles
        // by sequence number at the end.
        let assembled: Vec<Mutex<Vec<(u32, Range<usize>)>>> =
            (0..n_parts).map(|_| Mutex::new(Vec::new())).collect();
        let part_failures: Vec<AtomicU64> = (0..n_parts).map(|_| AtomicU64::new(0)).collect();
        let faults = Mutex::new(self.faults.clone());
        let abort = AtomicBool::new(false);
        let failure = Mutex::new(None::<TerminalFailure>);
        let chunks_sent = AtomicU64::new(0);
        let retries = AtomicU64::new(0);
        let retry_budget = self.config.retries;

        // One chunk's transfer, with the per-part retry/backoff loop.
        let transfer = |chunk: Chunk| {
            loop {
                if abort.load(Ordering::Relaxed) {
                    return;
                }
                let should_fail = {
                    let mut f = faults.lock().expect("fault plan lock");
                    match f.get_mut(&(chunk.part as u64)) {
                        Some(left) if *left > 0 => {
                            *left -= 1;
                            true
                        }
                        _ => false,
                    }
                };
                if !should_fail {
                    chunks_sent.fetch_add(1, Ordering::Relaxed);
                    assembled[chunk.part]
                        .lock()
                        .expect("assembly lock")
                        .push((chunk.seq, chunk.records));
                    return;
                }
                let fails = part_failures[chunk.part].fetch_add(1, Ordering::Relaxed) as u32 + 1;
                if fails > retry_budget {
                    // `fetch_add` hands out attempt numbers uniquely, so
                    // exactly one thread sees `budget + 1` — it records the
                    // terminal failure; later losers only confirm the abort.
                    if fails == retry_budget + 1 {
                        *failure.lock().expect("failure lock") = Some(TerminalFailure {
                            part: chunk.part as u64,
                            attempts: fails,
                        });
                    }
                    abort.store(true, Ordering::Relaxed);
                    return;
                }
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50u64 << fails.min(8)));
            }
        };

        let (tx, rx) = bounded::<Chunk>(self.config.queue_depth);
        let workers = self.config.workers.clamp(1, n_parts.max(1));
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let rx = rx.clone();
                let transfer = &transfer;
                let abort = &abort;
                handles.push(scope.spawn(move || {
                    // Keep draining after an abort (discarding chunks) so a
                    // reader blocked on the bounded queue can never
                    // deadlock against exited workers.
                    while let Ok(chunk) = rx.recv() {
                        if !abort.load(Ordering::Relaxed) {
                            transfer(chunk);
                        }
                    }
                }));
            }
            drop(rx);

            // The serial staging-disk read pass: parts in order, chunks in
            // order within a part. Overlap mode feeds the (bounded) queue
            // as it reads — backpressure blocks the reader when transfers
            // lag; eager mode completes the whole read pass first.
            let read_pass = |sink: &mut dyn FnMut(Chunk) -> bool| {
                for (part, &per) in chunk_records.iter().enumerate() {
                    let Range { mut start, end } = plan.record_range(part);
                    let mut seq = 0u32;
                    // An empty part still travels, as one empty chunk.
                    loop {
                        let next = end.min(start.saturating_add(per));
                        if !sink(Chunk {
                            part,
                            seq,
                            records: start..next,
                        }) {
                            return;
                        }
                        start = next;
                        seq += 1;
                        if start == end {
                            break;
                        }
                    }
                }
            };

            if self.config.overlap {
                let mut sink = |c: Chunk| !abort.load(Ordering::Relaxed) && tx.send(c).is_ok();
                read_pass(&mut sink);
            } else {
                let mut staged: Vec<Chunk> = Vec::new();
                let mut sink = |c: Chunk| {
                    staged.push(c);
                    true
                };
                read_pass(&mut sink);
                for c in staged {
                    if abort.load(Ordering::Relaxed) || tx.send(c).is_err() {
                        break;
                    }
                }
            }
            drop(tx);
            for h in handles {
                let _ = h.join();
            }
        });

        let (sim_read_s, sim_transfer_s, sim_pipelined_s, overlap_ratio) =
            self.simulate(plan, &chunk_records);

        let result = match failure.into_inner().expect("failure lock") {
            Some(f) => Err(f),
            None => {
                for (part, slot) in assembled.into_iter().enumerate() {
                    let mut chunks = slot.into_inner().expect("assembly lock");
                    chunks.sort_unstable_by_key(|&(seq, _)| seq);
                    let planned = plan.record_range(part);
                    let mut end = planned.start;
                    for (_, records) in chunks {
                        assert_eq!(records.start, end, "part {part}: chunks must tile it");
                        end = records.end;
                    }
                    assert_eq!(end, planned.end, "part {part}: chunks must cover it");
                }
                Ok(())
            }
        };
        StageOutcome {
            result,
            chunks_sent: chunks_sent.into_inner(),
            retries: retries.into_inner(),
            sim_read_s,
            sim_transfer_s,
            sim_pipelined_s,
            overlap_ratio,
        }
    }

    /// What this stage would cost on the calibrated 2006 site: a serial
    /// disk read of all bytes, then per-part LAN streams in parallel
    /// (per-chunk latency, per-part file overhead, per-stream bandwidth
    /// capped by the source aggregate) — the same structure
    /// `ipa_simgrid::stage` uses for Table 2's move-parts column. The
    /// pipelined total overlaps the shorter phase behind the longer one,
    /// down to the granularity of one chunk.
    fn simulate(&self, plan: &SplitPlan, chunk_records: &[usize]) -> (f64, f64, f64, f64) {
        let total_mb: f64 = plan.ranges.iter().map(|r| r.2 as f64).sum::<f64>() / 1e6;
        let read_s = if self.config.disk_mbps > 0.0 {
            total_mb / self.config.disk_mbps
        } else {
            0.0
        };
        let streams = plan.ranges.iter().filter(|r| r.2 > 0).count().max(1);
        let per_stream = self
            .config
            .lan_stream_mbps
            .min(self.config.lan_aggregate_mbps / streams as f64)
            .max(f64::MIN_POSITIVE);
        let part_chunks = |count: u64, per: usize| -> u64 {
            if per == usize::MAX {
                1
            } else {
                count.div_ceil(per as u64).max(1)
            }
        };
        let transfer_s = plan
            .ranges
            .iter()
            .zip(chunk_records)
            .map(|(&(_, count, bytes), &per)| {
                if bytes == 0 {
                    return 0.0;
                }
                self.config.lan_per_file_s
                    + part_chunks(count, per) as f64 * self.config.lan_latency_s
                    + bytes as f64 / 1e6 / per_stream
            })
            .fold(0.0, f64::max);
        let total_chunks: f64 = plan
            .ranges
            .iter()
            .zip(chunk_records)
            .map(|(&(_, count, _), &per)| part_chunks(count, per) as f64)
            .sum::<f64>()
            .max(1.0);
        let eager = read_s + transfer_s;
        let pipelined = if self.config.overlap {
            // Two-stage pipeline: the longer phase hides the shorter one
            // except for the pipeline-fill cost of ~one chunk.
            (read_s.max(transfer_s) + read_s.min(transfer_s) / total_chunks).min(eager)
        } else {
            eager
        };
        let ratio = if self.config.overlap && eager > 0.0 {
            (1.0 - pipelined / eager).clamp(0.0, 1.0)
        } else {
            0.0
        };
        (read_s, transfer_s, pipelined, ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> StagerConfig {
        StagerConfig {
            chunk_bytes: 256,
            queue_depth: 2,
            retries: 2,
            overlap: true,
            workers: 4,
            disk_mbps: 10.24,
            lan_stream_mbps: 7.6,
            lan_aggregate_mbps: 100.0,
            lan_latency_s: 0.5,
            lan_per_file_s: 1.0,
        }
    }

    /// Deliver `n_records` 25-byte records cut evenly into `n` parts.
    fn deliver(cfg: StagerConfig, faults: StageFaultPlan, n_records: u64, n: u64) -> StageOutcome {
        let cut = |p: u64| p * n_records / n;
        let plan = SplitPlan {
            parts: n as usize,
            ranges: (0..n)
                .map(|p| (cut(p), cut(p + 1) - cut(p), 25 * (cut(p + 1) - cut(p))))
                .collect(),
        };
        Stager::new(cfg, &faults).deliver(&plan)
    }

    #[test]
    fn delivery_is_whole_and_chunked() {
        let out = deliver(config(), StageFaultPlan::default(), 200, 4);
        out.result.unwrap();
        assert!(
            out.chunks_sent > 4,
            "small chunk_bytes must cut multiple chunks per part, got {}",
            out.chunks_sent
        );
        assert_eq!(out.retries, 0);
        assert!(out.sim_read_s > 0.0 && out.sim_transfer_s > 0.0);
        assert!(out.overlap_ratio > 0.0);
    }

    #[test]
    fn eager_mode_matches_and_reports_no_overlap() {
        let eager = StagerConfig {
            overlap: false,
            ..config()
        };
        let out = deliver(eager, StageFaultPlan::default(), 100, 3);
        out.result.unwrap();
        assert_eq!(out.overlap_ratio, 0.0);
        let piped = deliver(config(), StageFaultPlan::default(), 100, 3);
        assert_eq!(out.chunks_sent, piped.chunks_sent);
    }

    #[test]
    fn empty_parts_travel_as_one_empty_chunk() {
        // More parts than records → the empty tail parts are delivered
        // too, so a fault armed on one of them still fires.
        let out = deliver(config(), StageFaultPlan::default(), 2, 5);
        out.result.unwrap();
        assert_eq!(out.chunks_sent, 5);
        let empty = deliver(config(), StageFaultPlan::default().fail_part(2, 1), 0, 3);
        empty.result.unwrap();
        assert_eq!((empty.chunks_sent, empty.retries), (3, 1));
    }

    #[test]
    fn faults_within_budget_retry_and_succeed() {
        let out = deliver(
            StagerConfig {
                retries: 3,
                ..config()
            },
            StageFaultPlan::default().fail_part(1, 2),
            50,
            2,
        );
        out.result.unwrap();
        assert_eq!(out.retries, 2);
    }

    #[test]
    fn faults_beyond_budget_are_terminal() {
        let out = deliver(
            StagerConfig {
                retries: 1,
                ..config()
            },
            StageFaultPlan::default().fail_part(0, 10),
            50,
            2,
        );
        let failure = out.result.unwrap_err();
        assert_eq!(failure.part, 0);
        assert_eq!(failure.attempts, 2);
        assert!(out.retries >= 1);
    }

    #[test]
    fn simulated_times_reproduce_move_parts_shape() {
        // 471 MB over 16 parts on the 2006 calibration: the serial read is
        // ~46 s and the parallel transfer a few seconds per stream, so the
        // pipelined total must undercut eager read-then-move.
        let cfg = StagerConfig {
            chunk_bytes: 8 << 20,
            ..config()
        };
        let per_part: u64 = 471_000_000 / 16;
        let plan = SplitPlan {
            parts: 16,
            ranges: (0..16u64).map(|i| (i * 1000, 1000, per_part)).collect(),
        };
        let chunk_records: Vec<usize> = vec![1000 * (8 << 20) / per_part as usize; 16];
        let stager = Stager::new(cfg, &StageFaultPlan::default());
        let (read, transfer, pipelined, ratio) = stager.simulate(&plan, &chunk_records);
        assert!((read - 46.0).abs() < 1.0, "read {read}");
        assert!(transfer > 4.0 && transfer < 70.0, "transfer {transfer}");
        assert!(pipelined < read + transfer, "pipelined {pipelined}");
        assert!(ratio > 0.0 && ratio < 1.0, "ratio {ratio}");
    }
}
