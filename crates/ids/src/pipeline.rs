//! A threaded, sharded, self-healing IDS pipeline: sample chunks in,
//! detection events out.
//!
//! The pipeline runs three kinds of threads:
//!
//! * a **router** that frames the raw sample stream exactly once: a
//!   [`FrameSplitter`] runs the framer's boundary state machine over
//!   borrowed (`Arc`) chunk slices, emits each frame's window as a
//!   zero-copy segment, peeks its claimed source address
//!   ([`vprofile::EdgeSetExtractor::peek_sa`]) from the frame's SOF on,
//!   and routes the segment to a worker shard via
//!   [`crate::stable_shard_seeded`]. Segments travel over bounded
//!   per-shard SPSC rings ([`SpscRing`]) in batches of [`ROUTE_BATCH`],
//!   so the hand-off costs one atomic per batch, not per frame. Routing
//!   by the claimed SA means each worker owns a *disjoint* set of per-SA
//!   cluster state, so online updates never race across workers;
//! * **N supervised detection workers**, each owning a clone of the
//!   engine — an [`IdsEngine`] or a [`FusionEngine`], the pipeline's
//!   type parameter — and no framer: a routed segment already *is* the
//!   frame's window (bit-identical to [`crate::StreamFramer`]'s), so the
//!   worker borrows it in place when the frame sat in one chunk, copies
//!   its parts into one reused buffer otherwise, and scores it. Each
//!   worker runs under a supervisor that catches
//!   panics and respawns the scoring loop from a periodically-refreshed
//!   engine checkpoint, with exponential backoff and a bounded restart
//!   budget; past the budget the shard fails permanently and its windows
//!   drain as [`IdsEvent::Dropped`] placeholders. Each worker also runs a
//!   [`crate::health::HealthMonitor`]: sustained extraction failures or
//!   unscorable verdicts trip a circuit breaker into degraded mode
//!   ([`IdsEvent::Degraded`] instead of hard verdicts, affected SAs
//!   quarantined from online updates) until recovery probes succeed;
//! * a **merger** that feeds events through a [`crate::ReorderBuffer`]
//!   keyed by the router's sequence numbers, so the emitted event order is
//!   deterministic, and updates the shared [`PipelineStats`] *in the same
//!   critical section* that emits each event — a stats snapshot can
//!   therefore never disagree with the events already delivered.
//!
//! Samples arrive through a bounded queue whose overflow behaviour is the
//! configured [`BackpressurePolicy`]; events leave over an unbounded
//! channel. Loss can happen at two distinct points, accounted separately:
//!
//! * **pre-framing, at the feed boundary** — `Reject` refuses the
//!   incoming chunk and `DropOldest` sheds the oldest *queued* chunk when
//!   the sample backlog is full (`rejected_chunks` / `dropped_chunks`,
//!   outside the frame identity: a shed raw chunk never became frames);
//! * **post-split, at a shard's ring** — under `DropOldest` a full shard
//!   ring sheds the *incoming* frame segments (an SPSC producer cannot
//!   retract items it already published), each becoming an
//!   [`IdsEvent::Dropped`] placeholder with
//!   [`DropReason::Backlogged`], attributed to exactly one shard in
//!   [`PipelineStats::shard_sheds`] and counted in `dropped` *inside*
//!   the frame identity. Under `Block` and `Reject` the router instead
//!   blocks on the full ring, which fills the feed queue and lets the
//!   feed-level policy fire.
//!
//! Every split frame becomes exactly one event, so
//! `frames == anomalies + normals + extraction_failures + dropped + degraded`
//! holds in every stats snapshot.

use crate::engine::elapsed_ns;
use crate::fusion::{FusionEngine, FusionEvent, FusionRecord};
use crate::health::{
    BackpressurePolicy, BreakerState, DropReason, HealthConfig, HealthMonitor, WindowOutcome,
};
use crate::ring::SpscRing;
use crate::splitter::{FrameSplitter, RawSegment};
use crate::{stable_shard_seeded, IdsEngine, IdsEvent, ReorderBuffer};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vprofile::QuarantineSet;
use vprofile_fusion::DriftLedger;

/// Failure modes of the threaded pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineError {
    /// [`IdsPipeline::feed`] was called after the input was closed.
    InputClosed,
    /// The routing/detection threads are gone (a receiver hung up), so the
    /// chunk could not be delivered.
    WorkerUnavailable,
    /// A pipeline thread panicked beyond what supervision covers; its
    /// engine (and possibly trailing events) are lost.
    WorkerPanicked,
    /// The sample backlog is at the high-water mark and the pipeline runs
    /// the [`BackpressurePolicy::Reject`] policy; the chunk was not
    /// accepted.
    Backlogged,
    /// [`IdsPipeline::finish`] was called on a pipeline with more than one
    /// worker; use [`IdsPipeline::close`] to collect all engines.
    NotSingleWorker,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InputClosed => f.write_str("pipeline input already closed"),
            PipelineError::WorkerUnavailable => {
                f.write_str("detection workers are no longer receiving samples")
            }
            PipelineError::WorkerPanicked => f.write_str("a pipeline thread panicked"),
            PipelineError::Backlogged => {
                f.write_str("sample backlog full and the backpressure policy rejects")
            }
            PipelineError::NotSingleWorker => {
                f.write_str("finish() requires a single-worker pipeline; use close()")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Hook invoked by each worker before scoring a window; test-only fault
/// injection.
type FaultHook = Arc<dyn Fn(usize, u64) + Send + Sync>;

/// An engine an [`IdsPipeline`] can run on its shard workers:
/// [`IdsEngine`] (one backend) or [`FusionEngine`] (several voters of one
/// verdict). The router, supervisor, breaker, checkpoint and merger
/// machinery is the same for both; `Clone` is the checkpoint, which the
/// supervisor rolls a panicked worker back to.
///
/// The trait is sealed: its methods live on a crate-private supertrait, so
/// code outside this crate can name it as a bound but neither implement
/// it nor call the worker-side methods.
pub trait PipelineEngine: seam::ShardEngine {}

impl<E: seam::ShardEngine> PipelineEngine for E {}

pub(crate) mod seam {
    use crate::{FusionRecord, IdsEvent};
    use vprofile::{QuarantineSet, VProfileConfig};

    /// What a shard worker, the router and the merger need from an engine.
    pub trait ShardEngine: Clone + Send + 'static {
        /// The framing/extraction configuration, for the router.
        fn config(&self) -> &VProfileConfig;

        /// Scores one window. Returns the event, the extraction and
        /// scoring nanoseconds, and the frame's fusion telemetry (`None`
        /// from a single-backend engine). `shard` is stamped into any
        /// event that names one.
        fn process_window_shard(
            &mut self,
            stream_pos: u64,
            window: &[f64],
            shard: usize,
        ) -> (IdsEvent, u64, u64, Option<FusionRecord>);

        /// Applies any buffered online updates now.
        fn apply_pending_updates(&mut self);

        /// Quarantines an SA from online-update absorption.
        fn quarantine_sa(&mut self, sa: u8);

        /// Releases one SA from quarantine.
        fn release_sa(&mut self, sa: u8);

        /// The SAs currently quarantined from online updates.
        fn quarantined(&self) -> &QuarantineSet;

        /// Number of fusion voters (0 for a single-backend engine).
        fn voter_count(&self) -> usize;
    }
}

/// Construction parameters for [`IdsPipeline::spawn_sharded`].
#[derive(Clone)]
pub struct PipelineConfig {
    /// Number of detection workers; `0` means one per available CPU.
    pub workers: usize,
    /// High-water mark of the sample backlog and bound of each worker's
    /// window queue (chunks/windows, not samples). What happens when the
    /// sample backlog reaches it is [`PipelineConfig::backpressure`].
    pub high_water: usize,
    /// Largest number of frame segments a worker pops from its ring per
    /// wakeup; each is then scored on its own.
    pub batch_max: usize,
    /// What [`IdsPipeline::feed`] does at the high-water mark.
    pub backpressure: BackpressurePolicy,
    /// How many times a panicked worker is respawned from its checkpoint
    /// before the shard fails permanently.
    pub restart_budget: u32,
    /// Base of the exponential restart backoff (doubles per restart,
    /// capped at `base << 6`).
    pub backoff_base_ms: u64,
    /// Refresh the restart checkpoint every this many scored windows (the
    /// checkpoint is also refreshed on every breaker transition).
    pub checkpoint_interval: usize,
    /// Per-shard health-monitor tuning.
    pub health: HealthConfig,
    /// Rebalance seed folded into the SA→shard hash
    /// ([`crate::stable_shard_seeded`]). `0` (default) is the historical
    /// pinned mapping; any other value deterministically reshuffles shard
    /// ownership, the knob a deployment turns when its chatty SAs happen
    /// to collide on one worker (measure with
    /// [`PipelineStats::shard_frames`], pick a seed offline, pin it).
    pub shard_seed: u64,
    fault_hook: Option<FaultHook>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 0,
            high_water: 64,
            batch_max: 32,
            backpressure: BackpressurePolicy::Block,
            restart_budget: 3,
            backoff_base_ms: 5,
            checkpoint_interval: 256,
            health: HealthConfig::default(),
            shard_seed: 0,
            fault_hook: None,
        }
    }
}

impl std::fmt::Debug for PipelineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineConfig")
            .field("workers", &self.workers)
            .field("high_water", &self.high_water)
            .field("batch_max", &self.batch_max)
            .field("backpressure", &self.backpressure)
            .field("restart_budget", &self.restart_budget)
            .field("backoff_base_ms", &self.backoff_base_ms)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("health", &self.health)
            .field("shard_seed", &self.shard_seed)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "…"))
            .finish()
    }
}

impl PipelineConfig {
    /// Sets the worker count (`0` = one per available CPU).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the backlog high-water mark in chunks/windows.
    #[must_use]
    pub fn with_high_water(mut self, high_water: usize) -> Self {
        self.high_water = high_water;
        self
    }

    /// Sets the per-wakeup worker drain bound.
    #[must_use]
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max;
        self
    }

    /// Sets the feed-side overflow policy.
    #[must_use]
    pub fn with_backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Sets the per-shard restart budget.
    #[must_use]
    pub fn with_restart_budget(mut self, budget: u32) -> Self {
        self.restart_budget = budget;
        self
    }

    /// Sets the restart backoff base in milliseconds.
    #[must_use]
    pub fn with_backoff_base_ms(mut self, base_ms: u64) -> Self {
        self.backoff_base_ms = base_ms;
        self
    }

    /// Sets the checkpoint refresh interval in scored windows.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: usize) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the health-monitor tuning.
    #[must_use]
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Sets the SA→shard rebalance seed (see [`PipelineConfig::shard_seed`]).
    #[must_use]
    pub fn with_shard_seed(mut self, seed: u64) -> Self {
        self.shard_seed = seed;
        self
    }

    /// Installs a hook called as `(shard, seq)` before each window is
    /// scored. Exists so tests can inject worker faults (e.g. panics) at
    /// precise points; not part of the stable API.
    #[doc(hidden)]
    #[must_use]
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }
}

/// Aggregate pipeline counters.
///
/// The per-frame counters are mutually exclusive and partition the total:
/// `frames == anomalies + normals + extraction_failures + dropped +
/// degraded` holds in every snapshot, because the merger updates them in
/// the same critical section that emits the corresponding event. The chunk
/// counters (`dropped_chunks`, `rejected_chunks`) count *pre-framing* loss
/// at the feed boundary — a shed raw chunk never became frames, so they sit
/// outside the frame identity by construction. Ring-level shedding is
/// different: a shed *segment* is already a split frame, so it is counted
/// in `dropped` (inside the identity) and attributed to its shard in
/// `shard_sheds`.
// xtask: frame-identity: frames == anomalies + normals + extraction_failures + dropped + degraded
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Framed windows that produced an event (scored, degraded or dropped).
    pub frames: u64,
    /// Frames whose verdict was anomalous (extraction failures excluded).
    pub anomalies: u64,
    /// Frames accepted as consistent with their claimed sender.
    pub normals: u64,
    /// Frames whose extraction failed (reported as anomalous events, but
    /// counted separately here).
    pub extraction_failures: u64,
    /// Frames lost to worker restarts, permanently failed shards, or
    /// ring-level backpressure shedding (emitted as [`IdsEvent::Dropped`]
    /// placeholders).
    pub dropped: u64,
    /// Frames consumed while a shard's breaker was open (emitted as
    /// [`IdsEvent::Degraded`]).
    pub degraded: u64,
    /// Raw sample chunks shed by [`BackpressurePolicy::DropOldest`] before
    /// framing.
    // xtask: outside-frame-identity
    pub dropped_chunks: u64,
    /// Raw sample chunks refused by [`BackpressurePolicy::Reject`] before
    /// framing.
    // xtask: outside-frame-identity
    pub rejected_chunks: u64,
    /// Frames handled by each worker shard; sums to `frames`.
    // xtask: shard-breakdown(frames)
    pub shard_frames: Vec<u64>,
    /// Frame segments shed by each shard's full ring under
    /// [`BackpressurePolicy::DropOldest`]; the subset of `dropped` with
    /// [`DropReason::Backlogged`], attributed to exactly one shard.
    // xtask: shard-breakdown(dropped)
    pub shard_sheds: Vec<u64>,
    /// Instantaneous queue depth (windows routed but not yet handled) per
    /// shard at snapshot time; all zero after a clean [`IdsPipeline::close`].
    pub queue_depths: Vec<usize>,
    /// Supervisor restarts performed per shard.
    pub restarts: Vec<u32>,
    /// Circuit-breaker position per shard at snapshot time.
    pub breaker: Vec<BreakerState>,
    /// `true` for shards whose restart budget is exhausted.
    pub shard_failed: Vec<bool>,
    /// Number of SAs currently quarantined from online updates, per shard.
    pub quarantined_sas: Vec<usize>,
    /// Frames scored through the fusion ensemble (zero unless the
    /// pipeline runs a [`FusionEngine`], i.e. is a [`FusionPipeline`]). Counts
    /// fused frames, which already partition into the per-frame counters
    /// above, so it sits outside the frame identity.
    // xtask: outside-frame-identity
    pub fusion_frames: u64,
    /// Frames on which each fusion voter's individual calibrated call
    /// differed from the fused call, indexed by voter (0 = primary).
    // xtask: outside-frame-identity
    pub voter_disagreements: Vec<u64>,
    /// Typed change-point verdicts emitted by the fusion drift detectors
    /// (a property of fused frames, not a frame class of its own).
    // xtask: outside-frame-identity
    pub drift_verdicts: u64,
    /// Fusion voters suspended mid-stream. The outage *frames* are
    /// already counted in `degraded`; this counts the transitions.
    // xtask: outside-frame-identity
    pub voter_outages: u64,
    /// Cumulative wall-clock time spent in each pipeline stage, summed
    /// across the threads running it.
    pub stage_ns: StageBreakdown,
}

/// Per-stage wall-clock attribution of pipeline work, in nanoseconds.
///
/// Counters are cumulative and monotonic; `extract_ns` and `score_ns` sum
/// over every detection worker, so with N busy workers their sum can
/// exceed the pipeline's elapsed wall time. Time the router spends blocked
/// on a full worker queue (backpressure) is *not* counted — the counters
/// attribute compute, not waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageBreakdown {
    /// Framing the raw sample stream into frame segments plus the
    /// SA-peek shard routing decision, in the router thread.
    pub router_ns: u64,
    /// Assembling each routed segment's score-ready window (a borrow, or
    /// one copy for a frame that straddled a chunk boundary), across all
    /// workers.
    pub frame_ns: u64,
    /// Algorithm 1 edge-set extraction, across all workers.
    pub extract_ns: u64,
    /// Scoring — cache upkeep, nearest-cluster classification, and online
    /// update absorption — across all workers.
    pub score_ns: u64,
    /// Always 0; kept until the next benchmark change drops it from
    /// perfbench's stage sum.
    pub shadow_ns: u64,
    /// Reorder-buffer pushes and the stats/emit critical sections in the
    /// merger thread.
    pub merge_ns: u64,
}

/// Live atomics behind [`StageBreakdown`], shared by all pipeline threads.
#[derive(Debug, Default)]
struct StageClocks {
    router: AtomicU64,
    frame: AtomicU64,
    extract: AtomicU64,
    score: AtomicU64,
    merge: AtomicU64,
}

impl StageClocks {
    fn snapshot(&self) -> StageBreakdown {
        StageBreakdown {
            router_ns: self.router.load(Ordering::Relaxed),
            frame_ns: self.frame.load(Ordering::Relaxed),
            extract_ns: self.extract.load(Ordering::Relaxed),
            score_ns: self.score.load(Ordering::Relaxed),
            shadow_ns: 0,
            merge_ns: self.merge.load(Ordering::Relaxed),
        }
    }
}

/// One routed frame segment travelling from the router to a worker over
/// the shard's ring; the segment is the frame's window.
struct SegmentItem {
    seq: u64,
    segment: RawSegment,
}

/// One event travelling from a worker to the merger. `fusion` is `None`
/// unless the core is a [`FusionEngine`] (the record itself is `Copy`, so
/// attaching it costs no allocation either way).
struct ScoredItem {
    seq: u64,
    shard: usize,
    event: IdsEvent,
    fusion: Option<FusionRecord>,
}

/// Live per-shard gauges, written by supervisors and read by
/// [`IdsPipeline::stats`].
#[derive(Default)]
struct ShardGauges {
    depth: AtomicUsize,
    restarts: AtomicU32,
    breaker_open: AtomicBool,
    failed: AtomicBool,
    quarantined: AtomicUsize,
}

/// The bounded sample backlog between [`IdsPipeline::feed`] and the
/// router, with policy-controlled overflow.
///
/// Built on `std::sync` (`Mutex` + `Condvar`) rather than a channel
/// because the three backpressure policies need to inspect and mutate the
/// queue under one lock. Lock poisoning is recovered (`PoisonError::
/// into_inner`): the queue holds plain data that cannot be left in a torn
/// state by a panicking peer.
struct SampleQueue {
    inner: StdMutex<SampleQueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    high_water: usize,
}

struct SampleQueueInner {
    chunks: VecDeque<Vec<f64>>,
    closed: bool,
    receiver_gone: bool,
    dropped_chunks: u64,
    rejected_chunks: u64,
}

impl SampleQueue {
    fn new(high_water: usize) -> Self {
        SampleQueue {
            inner: StdMutex::new(SampleQueueInner {
                chunks: VecDeque::new(),
                closed: false,
                receiver_gone: false,
                dropped_chunks: 0,
                rejected_chunks: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            high_water: high_water.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SampleQueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues one chunk under the given overflow policy.
    fn push(&self, chunk: Vec<f64>, policy: BackpressurePolicy) -> Result<(), PipelineError> {
        let mut inner = self.lock();
        loop {
            if inner.receiver_gone {
                return Err(PipelineError::WorkerUnavailable);
            }
            if inner.closed {
                return Err(PipelineError::InputClosed);
            }
            if inner.chunks.len() < self.high_water {
                inner.chunks.push_back(chunk);
                self.not_empty.notify_one();
                return Ok(());
            }
            match policy {
                BackpressurePolicy::Block => {
                    inner = self
                        .not_full
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                BackpressurePolicy::Reject => {
                    inner.rejected_chunks += 1;
                    return Err(PipelineError::Backlogged);
                }
                BackpressurePolicy::DropOldest => {
                    inner.chunks.pop_front();
                    inner.dropped_chunks += 1;
                }
            }
        }
    }

    /// Dequeues the next chunk; blocks while empty, `None` once the input
    /// is closed and drained.
    fn pop(&self) -> Option<Vec<f64>> {
        let mut inner = self.lock();
        loop {
            if let Some(chunk) = inner.chunks.pop_front() {
                self.not_full.notify_one();
                return Some(chunk);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close_input(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Called by the router when the downstream threads are gone, so
    /// blocked producers wake with an error instead of hanging.
    fn mark_receiver_gone(&self) {
        self.lock().receiver_gone = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn shed_counters(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.dropped_chunks, inner.rejected_chunks)
    }
}

/// A running threaded IDS whose shard workers each run a clone of an
/// engine `E`: an [`IdsEngine`] by default, or a [`FusionEngine`]
/// ([`FusionPipeline`]). Drop-free shutdown: close the sample input (call
/// [`IdsPipeline::close`] / [`IdsPipeline::finish`]) and join.
#[derive(Debug)]
pub struct IdsPipeline<E: PipelineEngine = IdsEngine> {
    queue: Arc<SampleQueue>,
    backpressure: BackpressurePolicy,
    event_rx: Receiver<IdsEvent>,
    fusion_rx: Receiver<FusionEvent>,
    ledger: Arc<DriftLedger>,
    stats: Arc<Mutex<PipelineStats>>,
    gauges: Arc<Vec<ShardGauges>>,
    clocks: Arc<StageClocks>,
    router: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<E>>,
    merger: Option<JoinHandle<()>>,
}

/// A sharded pipeline whose workers each run a clone of a
/// [`FusionEngine`]: the one way to run several backends on each frame.
///
/// Fused verdicts drive the event stream, the circuit breaker, and the
/// (drift-gated) online updates. Notable fusion frames — change-point
/// verdicts and voter outages — additionally arrive on
/// [`FusionPipeline::fusion_events`] and are recorded, cross-shard and
/// in stream order, in the [`DriftLedger`] available from
/// [`FusionPipeline::ledger`].
pub type FusionPipeline = IdsPipeline<FusionEngine>;

impl std::fmt::Debug for SampleQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleQueue")
            .field("high_water", &self.high_water)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for ShardGauges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardGauges")
            .field("depth", &self.depth.load(Ordering::Relaxed))
            .field("restarts", &self.restarts.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<E: PipelineEngine> IdsPipeline<E> {
    /// Spawns the sharded pipeline: one router, `config.workers` supervised
    /// detection workers (each a clone of `engine`), and one merging thread.
    ///
    /// Windows are routed by a stable hash of the claimed source address,
    /// so each worker owns a disjoint set of per-SA cluster state; the
    /// merger re-serializes events into framing order, making the output
    /// stream deterministic and — when online updates are disabled —
    /// identical to a single-worker run.
    pub fn spawn_sharded(engine: E, config: PipelineConfig) -> Self {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        let high_water = config.high_water.max(1);
        let batch_max = config.batch_max.max(1);
        let checkpoint_interval = config.checkpoint_interval.max(1);

        let queue = Arc::new(SampleQueue::new(high_water));
        let (event_tx, event_rx) = unbounded::<IdsEvent>();
        let (scored_tx, scored_rx) = unbounded::<ScoredItem>();
        let (fusion_tx, fusion_rx) = unbounded::<FusionEvent>();
        let stats = Arc::new(Mutex::new(PipelineStats {
            shard_frames: vec![0; workers],
            shard_sheds: vec![0; workers],
            queue_depths: vec![0; workers],
            restarts: vec![0; workers],
            breaker: vec![BreakerState::Closed; workers],
            shard_failed: vec![false; workers],
            quarantined_sas: vec![0; workers],
            voter_disagreements: vec![0; engine.voter_count()],
            ..PipelineStats::default()
        }));
        let gauges: Arc<Vec<ShardGauges>> =
            Arc::new((0..workers).map(|_| ShardGauges::default()).collect());
        let clocks = Arc::new(StageClocks::default());

        let mut rings: Vec<Arc<SpscRing<SegmentItem>>> = Vec::with_capacity(workers);
        let mut worker_handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let ring = Arc::new(SpscRing::new(high_water));
            rings.push(Arc::clone(&ring));
            let rt = WorkerRuntime {
                shard,
                ring,
                scored_tx: scored_tx.clone(),
                gauges: Arc::clone(&gauges),
                clocks: Arc::clone(&clocks),
                hook: config.fault_hook.clone(),
                batch_max,
                checkpoint_interval,
                restart_budget: config.restart_budget,
                backoff_base_ms: config.backoff_base_ms,
                health: config.health,
            };
            let worker_engine = engine.clone();
            worker_handles.push(std::thread::spawn(move || {
                supervised_worker(worker_engine, rt)
            }));
        }
        // The router holds a scored sender only for its DropOldest shed
        // placeholders; beyond that, only workers hold scored senders, so
        // the merger exits exactly when the router and the last worker are
        // both done.
        let router_scored_tx = scored_tx.clone();
        drop(scored_tx);

        let model_config = engine.config().clone();
        let router_rt = RouterRuntime {
            queue: Arc::clone(&queue),
            rings,
            scored_tx: router_scored_tx,
            gauges: Arc::clone(&gauges),
            clocks: Arc::clone(&clocks),
            workers,
            shard_seed: config.shard_seed,
            policy: config.backpressure,
        };
        let router = std::thread::spawn(move || {
            let splitter = FrameSplitter::new(model_config);
            router_loop(splitter, router_rt);
        });

        let ledger = Arc::new(DriftLedger::new());
        let merger_ledger = Arc::clone(&ledger);
        let merger_stats = Arc::clone(&stats);
        let merger_clocks = Arc::clone(&clocks);
        let merger = std::thread::spawn(move || {
            merger_loop(
                scored_rx,
                event_tx,
                fusion_tx,
                &merger_ledger,
                merger_stats,
                merger_clocks,
            )
        });

        IdsPipeline {
            queue,
            backpressure: config.backpressure,
            event_rx,
            fusion_rx,
            ledger,
            stats,
            gauges,
            clocks,
            router: Some(router),
            workers: worker_handles,
            merger: Some(merger),
        }
    }

    /// Same as [`IdsPipeline::spawn_sharded`], kept for existing callers
    /// of `FusionPipeline::spawn`; new code calls `spawn_sharded`.
    pub fn spawn(engine: E, config: PipelineConfig) -> Self {
        Self::spawn_sharded(engine, config)
    }

    /// Number of detection workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Feeds one chunk of samples. What happens at the backlog high-water
    /// mark is the configured [`BackpressurePolicy`]: block (default),
    /// fail with [`PipelineError::Backlogged`], or shed the oldest queued
    /// chunk.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InputClosed`] if called after the input was closed,
    /// [`PipelineError::WorkerUnavailable`] if the pipeline threads died,
    /// [`PipelineError::Backlogged`] under the reject policy at the
    /// high-water mark.
    pub fn feed(&self, samples: Vec<f64>) -> Result<(), PipelineError> {
        self.queue.push(samples, self.backpressure)
    }

    /// The event stream, in framing order.
    pub fn events(&self) -> &Receiver<IdsEvent> {
        &self.event_rx
    }

    /// Closes the sample input without joining. The pipeline threads drain
    /// whatever was already fed and exit, at which point the event stream
    /// disconnects — so a caller can iterate [`IdsPipeline::events`] to the
    /// end before collecting engines with [`IdsPipeline::close`].
    /// Idempotent; [`IdsPipeline::feed`] fails with
    /// [`PipelineError::InputClosed`] afterwards.
    pub fn close_input(&mut self) {
        self.queue.close_input();
    }

    /// Snapshot of the aggregate counters. The per-frame counters are
    /// internally consistent (taken under the merger's lock); the queue
    /// depths, restart counts, breaker states and quarantine sizes are
    /// sampled from the live gauges at call time.
    pub fn stats(&self) -> PipelineStats {
        let mut snapshot = self.stats.lock().clone();
        snapshot.queue_depths = self
            .gauges
            .iter()
            .map(|g| g.depth.load(Ordering::Relaxed))
            .collect();
        snapshot.restarts = self
            .gauges
            .iter()
            .map(|g| g.restarts.load(Ordering::Relaxed))
            .collect();
        snapshot.breaker = self
            .gauges
            .iter()
            .map(|g| {
                if g.breaker_open.load(Ordering::Relaxed) {
                    BreakerState::Open
                } else {
                    BreakerState::Closed
                }
            })
            .collect();
        snapshot.shard_failed = self
            .gauges
            .iter()
            .map(|g| g.failed.load(Ordering::Relaxed))
            .collect();
        snapshot.quarantined_sas = self
            .gauges
            .iter()
            .map(|g| g.quarantined.load(Ordering::Relaxed))
            .collect();
        let (dropped_chunks, rejected_chunks) = self.queue.shed_counters();
        snapshot.dropped_chunks = dropped_chunks;
        snapshot.rejected_chunks = rejected_chunks;
        snapshot.stage_ns = self.clocks.snapshot();
        snapshot
    }

    /// Closes the input, waits for every thread to drain, and returns all
    /// worker engines (in shard order) with the final statistics. A shard
    /// whose restart budget was exhausted returns its last checkpoint.
    ///
    /// # Errors
    ///
    /// [`PipelineError::WorkerPanicked`] if any pipeline thread panicked
    /// beyond what supervision covers (worker panics are absorbed by the
    /// supervisors and surface in [`PipelineStats::restarts`] /
    /// [`PipelineStats::shard_failed`] instead). All threads are joined
    /// before the error returns, so `close` never hangs.
    pub fn close(mut self) -> Result<(Vec<E>, PipelineStats), PipelineError> {
        self.queue.close_input();
        let mut panicked = false;
        if let Some(router) = self.router.take() {
            panicked |= router.join().is_err();
        }
        let mut engines = Vec::with_capacity(self.workers.len());
        for worker in std::mem::take(&mut self.workers) {
            match worker.join() {
                Ok(engine) => engines.push(engine),
                Err(_) => panicked = true,
            }
        }
        if let Some(merger) = self.merger.take() {
            panicked |= merger.join().is_err();
        }
        if panicked {
            return Err(PipelineError::WorkerPanicked);
        }
        let stats = self.stats();
        Ok((engines, stats))
    }

    /// Closes a **single-worker** pipeline and returns its engine (with the
    /// possibly-updated model).
    ///
    /// # Errors
    ///
    /// [`PipelineError::NotSingleWorker`] when more than one worker was
    /// spawned (use [`IdsPipeline::close`]), [`PipelineError::WorkerPanicked`]
    /// if a thread panicked.
    pub fn finish(self) -> Result<(E, PipelineStats), PipelineError> {
        if self.workers.len() != 1 {
            return Err(PipelineError::NotSingleWorker);
        }
        let (mut engines, stats) = self.close()?;
        let engine = engines.pop().ok_or(PipelineError::WorkerPanicked)?;
        Ok((engine, stats))
    }
}

impl IdsPipeline<FusionEngine> {
    /// Notable fusion frames (drift verdicts, voter outages), in framing
    /// order.
    pub fn fusion_events(&self) -> &Receiver<FusionEvent> {
        &self.fusion_rx
    }

    /// The cross-shard drift/outage ledger.
    pub fn ledger(&self) -> &Arc<DriftLedger> {
        &self.ledger
    }
}

impl<E: PipelineEngine> Drop for IdsPipeline<E> {
    fn drop(&mut self) {
        self.queue.close_input();
        // Best effort: never panic in drop.
        if let Some(router) = self.router.take() {
            let _ = router.join();
        }
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
        if let Some(merger) = self.merger.take() {
            let _ = merger.join();
        }
    }
}

/// Everything the router thread needs; owned by the router.
struct RouterRuntime {
    queue: Arc<SampleQueue>,
    rings: Vec<Arc<SpscRing<SegmentItem>>>,
    scored_tx: Sender<ScoredItem>,
    gauges: Arc<Vec<ShardGauges>>,
    clocks: Arc<StageClocks>,
    workers: usize,
    shard_seed: u64,
    policy: BackpressurePolicy,
}

/// Segments the router accumulates per shard before publishing them to
/// the shard's ring in one batch — one `Release` store (plus at most one
/// condvar signal) per [`ROUTE_BATCH`] frames instead of per frame.
/// Batches are also flushed at the end of every chunk so a trickle of
/// input never strands a frame in a half-full batch.
const ROUTE_BATCH: usize = 8;

/// Closes every shard ring when dropped, so the workers observe
/// end-of-stream no matter how the router exits — clean drain, dead
/// consumer, or a panic.
struct RingCloser<'a>(&'a [Arc<SpscRing<SegmentItem>>]);

impl Drop for RingCloser<'_> {
    fn drop(&mut self) {
        for ring in self.0 {
            ring.close();
        }
    }
}

/// Splits the sample stream into raw frame segments and routes each to
/// its shard's ring by the peeked source address.
fn router_loop(splitter: FrameSplitter, rt: RouterRuntime) {
    let _closer = RingCloser(&rt.rings);
    route_stream(splitter, &rt);
}

/// The routing loop proper; returns early (after waking blocked
/// producers) when a shard's consumer died beyond supervision.
fn route_stream(mut splitter: FrameSplitter, rt: &RouterRuntime) {
    let mut seq = 0u64;
    let mut segments: Vec<RawSegment> = Vec::new();
    let mut batches: Vec<Vec<SegmentItem>> = (0..rt.workers).map(|_| Vec::new()).collect();
    while let Some(chunk) = rt.queue.pop() {
        let chunk: Arc<[f64]> = chunk.into();
        let splitting = Instant::now();
        splitter.split_chunk(&chunk, &mut segments);
        rt.clocks
            .router
            .fetch_add(elapsed_ns(splitting), Ordering::Relaxed);
        for segment in segments.drain(..) {
            // A segment whose SA could not be decoded (sa == 0xFF, the
            // J1939 global address, never a legitimate claimed sender)
            // still lands on one stable shard.
            let shard = stable_shard_seeded(segment.sa, rt.workers, rt.shard_seed);
            let Some(batch) = batches.get_mut(shard) else {
                continue;
            };
            batch.push(SegmentItem { seq, segment });
            seq += 1;
            if batch.len() >= ROUTE_BATCH && !flush_batch(rt, shard, batch) {
                rt.queue.mark_receiver_gone();
                return;
            }
        }
        // End-of-chunk flush: publishing (or blocking on) the ring is
        // deliberately untimed — that wait is backpressure, not routing.
        for shard in 0..rt.workers {
            let Some(batch) = batches.get_mut(shard) else {
                continue;
            };
            if !batch.is_empty() && !flush_batch(rt, shard, batch) {
                rt.queue.mark_receiver_gone();
                return;
            }
        }
    }
    if let Some(segment) = splitter.flush() {
        let shard = stable_shard_seeded(segment.sa, rt.workers, rt.shard_seed);
        if let Some(batch) = batches.get_mut(shard) {
            batch.push(SegmentItem { seq, segment });
            let _ = flush_batch(rt, shard, batch);
        }
    }
}

/// Publishes one shard's accumulated batch onto its ring under the
/// configured policy; the batch is empty afterwards. Returns `false`
/// when the shard's consumer is gone (its supervisor died in a way
/// supervision does not cover), which ends routing.
fn flush_batch(rt: &RouterRuntime, shard: usize, batch: &mut Vec<SegmentItem>) -> bool {
    let (Some(ring), Some(gauge)) = (rt.rings.get(shard), rt.gauges.get(shard)) else {
        batch.clear();
        return false;
    };
    match rt.policy {
        BackpressurePolicy::Block | BackpressurePolicy::Reject => {
            // Deliberately blocking: a full ring stalls the router, the
            // sample backlog fills behind it, and the *feed-level* policy
            // decides what happens — ring-level loss only exists under
            // `DropOldest`.
            gauge.depth.fetch_add(batch.len(), Ordering::Relaxed);
            if ring.push_batch(batch) {
                true
            } else {
                gauge.depth.fetch_sub(batch.len(), Ordering::Relaxed);
                batch.clear();
                false
            }
        }
        BackpressurePolicy::DropOldest => {
            if ring.is_consumer_gone() {
                batch.clear();
                return false;
            }
            let accepted = ring.try_push_batch(batch);
            gauge.depth.fetch_add(accepted, Ordering::Relaxed);
            // An SPSC producer cannot retract items it already published,
            // so the ring-level analogue of "drop oldest" sheds the
            // *incoming* overflow: each rejected segment becomes a
            // `Dropped` placeholder sent straight to the merger, keeping
            // the sequence space gapless and the loss attributed to
            // exactly this shard.
            let mut merger_gone = false;
            for item in batch.drain(..) {
                if merger_gone {
                    continue;
                }
                let shed = ScoredItem {
                    seq: item.seq,
                    shard,
                    event: IdsEvent::Dropped {
                        stream_pos: item.segment.base,
                        shard,
                        reason: DropReason::Backlogged,
                    },
                    fusion: None,
                };
                merger_gone = rt.scored_tx.send(shed).is_err();
            }
            !merger_gone
        }
    }
}

/// Everything a shard's supervisor and scoring loop need; owned by the
/// supervisor thread.
struct WorkerRuntime {
    shard: usize,
    ring: Arc<SpscRing<SegmentItem>>,
    scored_tx: Sender<ScoredItem>,
    gauges: Arc<Vec<ShardGauges>>,
    clocks: Arc<StageClocks>,
    hook: Option<FaultHook>,
    batch_max: usize,
    checkpoint_interval: usize,
    restart_budget: u32,
    backoff_base_ms: u64,
    health: HealthConfig,
}

/// Mutable worker state that survives a panic of the scoring loop: the
/// supervisor rolls `engine` back to `checkpoint` and resumes from
/// `pending`, dropping only the segment that was in flight when the panic
/// hit.
struct WorkerState<E> {
    engine: E,
    checkpoint: E,
    pending: VecDeque<SegmentItem>,
    /// Scratch for ring pops; drained into `pending` immediately.
    batch: Vec<SegmentItem>,
    /// Reused window buffer for segments that straddle a chunk boundary.
    window: Vec<f64>,
    /// SAs the circuit breaker quarantined (and only those): recovery
    /// releases exactly these, never a drift-guard quarantine.
    breaker_quarantine: QuarantineSet,
    in_flight: Option<(u64, u64)>,
    monitor: HealthMonitor,
    processed: usize,
}

impl<E: PipelineEngine> WorkerState<E> {
    /// Refreshes the restart checkpoint.
    fn refresh_checkpoint(&mut self) {
        self.checkpoint = self.engine.clone();
    }

    /// The scoring loop proper; returns when the shard's ring closes and
    /// drains (clean shutdown) or the merger is gone. May panic — the
    /// supervisor catches it.
    fn run(&mut self, rt: &WorkerRuntime) {
        loop {
            if self.pending.is_empty() {
                let got = rt.ring.pop_batch(&mut self.batch, rt.batch_max);
                if got == 0 {
                    return;
                }
                rt.gauges[rt.shard].depth.fetch_sub(got, Ordering::Relaxed);
                self.pending.extend(self.batch.drain(..));
            }
            while let Some(item) = self.pending.pop_front() {
                // The in-flight marker must be set before any fallible
                // work so a panic anywhere in scoring maps to exactly this
                // segment, at the position its scored event would have had.
                let stream_pos = item.segment.base;
                self.in_flight = Some((item.seq, stream_pos));
                let framing = Instant::now();
                let mut buffer = std::mem::take(&mut self.window);
                let window = item.segment.window(&mut buffer);
                rt.clocks
                    .frame
                    .fetch_add(elapsed_ns(framing), Ordering::Relaxed);
                if let Some(hook) = &rt.hook {
                    hook(rt.shard, item.seq);
                }
                let (event, fusion) = self.score(rt, stream_pos, window);
                self.window = buffer;
                // Breaker transitions and the drift guard both move the
                // quarantine; publish its size whenever it changed.
                let quarantined = self.engine.quarantined().len();
                let gauge = &rt.gauges[rt.shard].quarantined;
                if gauge.load(Ordering::Relaxed) != quarantined {
                    gauge.store(quarantined, Ordering::Relaxed);
                }
                self.in_flight = None;
                self.processed += 1;
                if self.processed.is_multiple_of(rt.checkpoint_interval) {
                    self.refresh_checkpoint();
                }
                let scored = ScoredItem {
                    seq: item.seq,
                    shard: rt.shard,
                    event,
                    fusion,
                };
                if rt.scored_tx.send(scored).is_err() {
                    // Merger gone (panicked): nothing downstream to feed.
                    return;
                }
            }
        }
    }

    /// Scores one window through the engine, attributing extraction and
    /// scoring time to the shared stage clocks.
    fn process_timed(
        &mut self,
        rt: &WorkerRuntime,
        stream_pos: u64,
        window: &[f64],
    ) -> (IdsEvent, Option<FusionRecord>) {
        let (event, extract_ns, score_ns, fusion) = self
            .engine
            .process_window_shard(stream_pos, window, rt.shard);
        rt.clocks.extract.fetch_add(extract_ns, Ordering::Relaxed);
        rt.clocks.score.fetch_add(score_ns, Ordering::Relaxed);
        (event, fusion)
    }

    /// Scores one window through the circuit breaker.
    fn score(
        &mut self,
        rt: &WorkerRuntime,
        stream_pos: u64,
        window: &[f64],
    ) -> (IdsEvent, Option<FusionRecord>) {
        match self.monitor.state() {
            BreakerState::Closed => {
                let (event, fusion) = self.process_timed(rt, stream_pos, window);
                if let Some(sa) = event.sa() {
                    self.monitor.note_sa(sa.0);
                }
                if let Some(reason) = self.monitor.observe(outcome_of(&event)) {
                    // Trip: the capture feeding this shard is suspect.
                    // Quarantine the SAs the fault was flowing through so
                    // corrupt observations cannot poison the model, and
                    // checkpoint so a restart preserves the quarantine.
                    // Only SAs not already quarantined become the
                    // breaker's to release.
                    for sa in self.monitor.drain_recent_sas() {
                        if !self.engine.quarantined().contains(sa) {
                            self.breaker_quarantine.insert(sa);
                        }
                        self.engine.quarantine_sa(sa);
                    }
                    rt.gauges[rt.shard]
                        .breaker_open
                        .store(true, Ordering::Relaxed);
                    self.refresh_checkpoint();
                    return (
                        IdsEvent::Degraded {
                            stream_pos,
                            shard: rt.shard,
                            reason,
                        },
                        fusion,
                    );
                }
                (event, fusion)
            }
            BreakerState::Open => {
                let reason = self.monitor.reason();
                if self.monitor.take_probe_slot() {
                    let (event, fusion) = self.process_timed(rt, stream_pos, window);
                    let healthy = matches!(outcome_of(&event), WindowOutcome::Healthy);
                    if self.monitor.record_probe(healthy) {
                        // Fault cleared: release the breaker's quarantine
                        // and resume hard verdicts, starting with this
                        // probe's.
                        for sa in self.breaker_quarantine.iter() {
                            self.engine.release_sa(sa);
                        }
                        self.breaker_quarantine.clear();
                        rt.gauges[rt.shard]
                            .breaker_open
                            .store(false, Ordering::Relaxed);
                        self.refresh_checkpoint();
                        return (event, fusion);
                    }
                    return (
                        IdsEvent::Degraded {
                            stream_pos,
                            shard: rt.shard,
                            reason,
                        },
                        fusion,
                    );
                }
                (
                    IdsEvent::Degraded {
                        stream_pos,
                        shard: rt.shard,
                        reason,
                    },
                    None,
                )
            }
        }
    }
}

/// How the health monitor sees one scored event. Anomaly verdicts are
/// deliberately `Healthy` here: an attack storm must never open the
/// breaker and silence the alarms it should raise.
fn outcome_of(event: &IdsEvent) -> WindowOutcome {
    if event.extraction_failed() {
        WindowOutcome::ExtractionFailure
    } else if event.verdict().is_some_and(|v| v.is_unscorable()) {
        WindowOutcome::Unscorable
    } else {
        WindowOutcome::Healthy
    }
}

/// Runs one shard's scoring loop under supervision: panics roll the engine
/// back to its checkpoint and resume (bounded by the restart budget with
/// exponential backoff); past the budget the shard fails permanently and
/// its windows drain as [`IdsEvent::Dropped`] placeholders so the merger's
/// reorder buffer never stalls on a sequence gap.
fn supervised_worker<E: PipelineEngine>(engine: E, rt: WorkerRuntime) -> E {
    // Held for the whole thread: if this worker dies in any way
    // supervision does not cover, the router must not park forever on a
    // ring nobody will ever drain again.
    let _consumer_guard = RingConsumerGuard(Arc::clone(&rt.ring));
    let mut state = WorkerState {
        checkpoint: engine.clone(),
        engine,
        pending: VecDeque::new(),
        batch: Vec::new(),
        window: Vec::new(),
        breaker_quarantine: QuarantineSet::new(),
        in_flight: None,
        monitor: HealthMonitor::new(rt.health),
        processed: 0,
    };
    let mut restarts = 0u32;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| state.run(&rt)));
        match outcome {
            Ok(()) => {
                state.engine.apply_pending_updates();
                return state.engine;
            }
            Err(_) => {
                restarts += 1;
                rt.gauges[rt.shard].restarts.fetch_add(1, Ordering::Relaxed);
                // The window that was in flight died with the panic. It is
                // *not* retried: a deterministic fault would otherwise
                // panic-loop the shard through its whole budget. A
                // placeholder keeps the merger's sequence space gapless.
                if let Some((seq, stream_pos)) = state.in_flight.take() {
                    let _ = rt.scored_tx.send(ScoredItem {
                        seq,
                        shard: rt.shard,
                        event: IdsEvent::Dropped {
                            stream_pos,
                            shard: rt.shard,
                            reason: DropReason::WorkerRestart,
                        },
                        fusion: None,
                    });
                }
                if restarts > rt.restart_budget {
                    rt.gauges[rt.shard].failed.store(true, Ordering::Relaxed);
                    let pending = std::mem::take(&mut state.pending);
                    drain_failed_shard(&rt, pending, &mut state.batch);
                    return state.checkpoint;
                }
                let exponent = restarts.saturating_sub(1).min(6);
                std::thread::sleep(Duration::from_millis(rt.backoff_base_ms << exponent));
                state.engine = state.checkpoint.clone();
            }
        }
    }
}

/// Marks the shard's ring consumer as gone when the worker thread exits
/// by any path — clean return, permanent failure, or a panic that escapes
/// the supervisor — so the router cannot park forever publishing to a
/// ring with no reader.
struct RingConsumerGuard(Arc<SpscRing<SegmentItem>>);

impl Drop for RingConsumerGuard {
    fn drop(&mut self) {
        self.0.mark_consumer_gone();
    }
}

/// Drains a permanently failed shard: everything still queued (and
/// everything the router routes here from now on) becomes a `Dropped`
/// placeholder, so the router never blocks on a dead shard and the merger
/// never waits on a missing sequence number, each at its window's
/// position.
fn drain_failed_shard(
    rt: &WorkerRuntime,
    pending: VecDeque<SegmentItem>,
    batch: &mut Vec<SegmentItem>,
) {
    let drop_item = |item: SegmentItem| {
        let _ = rt.scored_tx.send(ScoredItem {
            seq: item.seq,
            shard: rt.shard,
            event: IdsEvent::Dropped {
                stream_pos: item.segment.base,
                shard: rt.shard,
                reason: DropReason::ShardFailed,
            },
            fusion: None,
        });
    };
    for item in pending {
        drop_item(item);
    }
    loop {
        let got = rt.ring.pop_batch(batch, rt.batch_max);
        if got == 0 {
            return;
        }
        rt.gauges[rt.shard].depth.fetch_sub(got, Ordering::Relaxed);
        for item in batch.drain(..) {
            drop_item(item);
        }
    }
}

/// Re-serializes events into framing order and keeps the shared
/// statistics consistent with the emitted event stream.
// xtask: hot-path
// xtask: accounting(IdsEvent)
fn merger_loop(
    scored_rx: Receiver<ScoredItem>,
    event_tx: Sender<IdsEvent>,
    fusion_tx: Sender<FusionEvent>,
    ledger: &DriftLedger,
    stats: Arc<Mutex<PipelineStats>>,
    clocks: Arc<StageClocks>,
) {
    let mut buffer: ReorderBuffer<(usize, IdsEvent, Option<FusionRecord>)> = ReorderBuffer::new();
    // xtask: allow(hot-path-alloc): one scratch Vec per merger-thread lifetime, drained and reused across frames
    let mut ready: Vec<(usize, IdsEvent, Option<FusionRecord>)> = Vec::new();
    // xtask: allow(hot-path-alloc): one scratch Vec per merger-thread lifetime, drained and reused across frames
    let mut notables: Vec<(u64, usize, FusionRecord)> = Vec::new();
    for item in scored_rx {
        let merging = Instant::now();
        buffer.push(item.seq, (item.shard, item.event, item.fusion), &mut ready);
        if ready.is_empty() {
            clocks
                .merge
                .fetch_add(elapsed_ns(merging), Ordering::Relaxed);
            continue;
        }
        // Counter update and event emission share one critical section, so
        // `stats()` can never observe a count without its event (or vice
        // versa) — `frames == anomalies + normals + extraction_failures +
        // dropped + degraded` holds in every snapshot.
        // xtask: allow(hot-path-lock): counters and event emission must share one critical section so stats snapshots never disagree with the emitted stream
        let mut s = stats.lock();
        for (shard, event, fusion) in ready.drain(..) {
            s.frames += 1;
            match &event {
                IdsEvent::Scored(scored) => {
                    if scored.extraction_failed {
                        s.extraction_failures += 1;
                    } else if scored.verdict.is_anomaly() {
                        s.anomalies += 1;
                    } else {
                        s.normals += 1;
                    }
                }
                IdsEvent::Degraded { .. } => s.degraded += 1,
                IdsEvent::Dropped { reason, .. } => {
                    s.dropped += 1;
                    // Ring-shed segments are additionally attributed to
                    // the shard whose full ring shed them.
                    if matches!(reason, DropReason::Backlogged) {
                        if let Some(count) = s.shard_sheds.get_mut(shard) {
                            *count += 1;
                        }
                    }
                }
            }
            if let Some(count) = s.shard_frames.get_mut(shard) {
                *count += 1;
            }
            if let Some(record) = fusion {
                s.fusion_frames += 1;
                let mut mask = record.disagree_mask;
                let mut index = 0usize;
                while mask != 0 {
                    if mask & 1 != 0 {
                        if let Some(count) = s.voter_disagreements.get_mut(index) {
                            *count += 1;
                        }
                    }
                    mask >>= 1;
                    index += 1;
                }
                if record.drift.is_some() {
                    s.drift_verdicts += 1;
                }
                if record.outage.is_some() {
                    s.voter_outages += 1;
                }
                if record.drift.is_some() || record.outage.is_some() {
                    notables.push((event.stream_pos(), shard, record));
                }
            }
            // Receiver gone: keep counting so stats stay truthful, but
            // stop forwarding.
            // xtask: allow(guard-across-blocking): event_tx is unbounded, send never blocks; atomicity of counters+events requires the guard
            let _ = event_tx.send(event);
        }
        drop(s);
        clocks
            .merge
            .fetch_add(elapsed_ns(merging), Ordering::Relaxed);
        if !notables.is_empty() {
            publish_fusion_notables(&fusion_tx, ledger, &mut notables);
        }
    }
}

/// Records drift and outage frames in the [`DriftLedger`] and forwards them
/// on the fusion event channel, outside the stats critical section.
// xtask: cold
fn publish_fusion_notables(
    fusion_tx: &Sender<FusionEvent>,
    ledger: &DriftLedger,
    notables: &mut Vec<(u64, usize, FusionRecord)>,
) {
    for (stream_pos, shard, record) in notables.drain(..) {
        if let Some(verdict) = record.drift {
            ledger.record_drift(stream_pos, shard, verdict);
        }
        if let Some(voter) = record.outage {
            ledger.record_outage(stream_pos, shard, voter);
        }
        let _ = fusion_tx.send(FusionEvent {
            stream_pos,
            shard,
            record,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UpdatePolicy;
    use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
    use vprofile_vehicle::{CaptureConfig, Vehicle};

    fn single_worker(high_water: usize) -> PipelineConfig {
        PipelineConfig::default()
            .with_workers(1)
            .with_high_water(high_water)
    }

    fn engine_and_capture() -> (IdsEngine, vprofile_vehicle::Capture) {
        let vehicle = Vehicle::vehicle_b(23);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(800).with_seed(23))
            .unwrap();
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
        let model = Trainer::new(config)
            .train_with_lut(&extracted.labeled(), &vehicle.sa_lut())
            .unwrap();
        (
            IdsEngine::new(model, 2.0, UpdatePolicy::disabled()),
            capture,
        )
    }

    #[test]
    fn pipeline_processes_chunked_stream() {
        let (engine, capture) = engine_and_capture();
        let pipeline = IdsPipeline::spawn_sharded(engine, single_worker(4));
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(40) {
            stream.extend(frame.trace.to_f64());
        }
        for chunk in stream.chunks(2048) {
            pipeline.feed(chunk.to_vec()).unwrap();
        }
        let (_, stats) = pipeline.finish().unwrap();
        assert_eq!(stats.frames, 40);
        assert_eq!(stats.anomalies, 0);
        assert_eq!(stats.normals, 40);
        assert_eq!(stats.extraction_failures, 0);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.degraded, 0);
        assert_eq!(stats.shard_frames, vec![40]);
        assert_eq!(stats.shard_sheds, vec![0]);
        assert_eq!(stats.queue_depths, vec![0]);
        assert_eq!(stats.restarts, vec![0]);
        assert_eq!(stats.breaker, vec![BreakerState::Closed]);
        assert_eq!(stats.shard_failed, vec![false]);
    }

    #[test]
    fn events_are_received_while_running() {
        let (engine, capture) = engine_and_capture();
        let pipeline = IdsPipeline::spawn_sharded(engine, single_worker(4));
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(5) {
            stream.extend(frame.trace.to_f64());
        }
        pipeline.feed(stream).unwrap();
        // At least the first few events arrive without finishing.
        let mut seen = 0;
        for _ in 0..4 {
            if pipeline
                .events()
                .recv_timeout(std::time::Duration::from_secs(10))
                .is_ok()
            {
                seen += 1;
            }
        }
        assert!(seen >= 4);
        let (_, stats) = pipeline.finish().unwrap();
        assert_eq!(stats.frames, 5);
    }

    #[test]
    fn finish_returns_engine_with_updates_applied() {
        let (engine, capture) = engine_and_capture();
        let model = engine.model().unwrap().clone();
        let before: usize = model.clusters().iter().map(|c| c.count()).sum();
        let engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX));
        let pipeline = IdsPipeline::spawn_sharded(engine, single_worker(2));
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(60) {
            stream.extend(frame.trace.to_f64());
        }
        pipeline.feed(stream).unwrap();
        let (engine, stats) = pipeline.finish().unwrap();
        assert_eq!(stats.frames, 60);
        let after: usize = engine
            .model()
            .unwrap()
            .clusters()
            .iter()
            .map(|c| c.count())
            .sum();
        assert!(after > before);
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let (engine, _) = engine_and_capture();
        let pipeline = IdsPipeline::spawn_sharded(engine, single_worker(2));
        pipeline.feed(vec![1000.0; 100]).unwrap();
        drop(pipeline); // must join cleanly
    }

    #[test]
    fn sharded_run_matches_single_worker_events() {
        let (engine, capture) = engine_and_capture();
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(60) {
            stream.extend(frame.trace.to_f64());
        }

        let run = |workers: usize| -> (Vec<IdsEvent>, PipelineStats) {
            let mut pipeline = IdsPipeline::spawn_sharded(
                engine.clone(),
                PipelineConfig::default().with_workers(workers),
            );
            assert_eq!(pipeline.worker_count(), workers);
            for chunk in stream.chunks(4096) {
                pipeline.feed(chunk.to_vec()).unwrap();
            }
            pipeline.close_input();
            let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
            let (engines, stats) = pipeline.close().unwrap();
            assert_eq!(engines.len(), workers);
            (events, stats)
        };

        let (single_events, single_stats) = run(1);
        let (quad_events, quad_stats) = run(4);
        assert_eq!(single_events, quad_events);
        assert_eq!(single_stats.frames, quad_stats.frames);
        assert_eq!(single_stats.anomalies, quad_stats.anomalies);
        assert_eq!(
            quad_stats.shard_frames.iter().sum::<u64>(),
            quad_stats.frames
        );
        assert!(
            quad_stats.shard_frames.iter().filter(|&&n| n > 0).count() > 1,
            "vehicle-B SAs should spread over multiple shards: {:?}",
            quad_stats.shard_frames
        );
    }

    #[test]
    fn finish_refuses_multi_worker_pipelines() {
        let (engine, _) = engine_and_capture();
        let pipeline =
            IdsPipeline::spawn_sharded(engine, PipelineConfig::default().with_workers(2));
        assert_eq!(
            pipeline.finish().unwrap_err(),
            PipelineError::NotSingleWorker
        );
    }

    #[test]
    fn auto_worker_count_uses_available_parallelism() {
        let (engine, _) = engine_and_capture();
        let pipeline = IdsPipeline::spawn_sharded(engine, PipelineConfig::default());
        let workers = pipeline.worker_count();
        assert!(workers >= 1);
        let (engines, stats) = pipeline.close().unwrap();
        assert_eq!(engines.len(), workers);
        assert_eq!(stats.shard_frames.len(), workers);
    }

    #[test]
    fn sample_queue_reject_policy_returns_backlogged() {
        let queue = SampleQueue::new(2);
        queue.push(vec![1.0], BackpressurePolicy::Reject).unwrap();
        queue.push(vec![2.0], BackpressurePolicy::Reject).unwrap();
        assert_eq!(
            queue.push(vec![3.0], BackpressurePolicy::Reject),
            Err(PipelineError::Backlogged)
        );
        assert_eq!(queue.shed_counters(), (0, 1));
        // The queue still holds (and yields) the accepted chunks.
        assert_eq!(queue.pop(), Some(vec![1.0]));
    }

    #[test]
    fn sample_queue_drop_oldest_sheds_the_head() {
        let queue = SampleQueue::new(2);
        queue
            .push(vec![1.0], BackpressurePolicy::DropOldest)
            .unwrap();
        queue
            .push(vec![2.0], BackpressurePolicy::DropOldest)
            .unwrap();
        queue
            .push(vec![3.0], BackpressurePolicy::DropOldest)
            .unwrap();
        assert_eq!(queue.shed_counters(), (1, 0));
        assert_eq!(queue.pop(), Some(vec![2.0]), "oldest chunk was shed");
        assert_eq!(queue.pop(), Some(vec![3.0]));
    }

    #[test]
    fn sample_queue_block_policy_waits_for_the_consumer() {
        let queue = Arc::new(SampleQueue::new(1));
        queue.push(vec![1.0], BackpressurePolicy::Block).unwrap();
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                queue.pop()
            })
        };
        // Blocks until the consumer pops, then succeeds without loss.
        queue.push(vec![2.0], BackpressurePolicy::Block).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(vec![1.0]));
        assert_eq!(queue.shed_counters(), (0, 0));
        assert_eq!(queue.pop(), Some(vec![2.0]));
    }

    #[test]
    fn sample_queue_close_unblocks_and_errors() {
        let queue = SampleQueue::new(1);
        queue.push(vec![1.0], BackpressurePolicy::Block).unwrap();
        queue.close_input();
        assert_eq!(
            queue.push(vec![2.0], BackpressurePolicy::Block),
            Err(PipelineError::InputClosed)
        );
        assert_eq!(queue.pop(), Some(vec![1.0]), "closing drains, not drops");
        assert_eq!(queue.pop(), None);
    }
}
