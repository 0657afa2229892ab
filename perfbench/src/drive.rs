//! The load generator: one thread that feeds a pass's chunks through the
//! public `feed` and drains `events()` in the same loop.
//!
//! Closed loop: each chunk is fed as soon as `BackpressurePolicy::Block`
//! admits it, and is due when its `feed` call starts. Open loop: chunk
//! `i` is due at `start + i · interval` whatever the pipeline does, and
//! the generator waits for due times by blocking on the event stream, so
//! it stamps every event the moment it arrives. A frame's latency runs
//! from the due time of the chunk that closes it to the generator's
//! receipt of its event, so a stall is charged to every frame queued
//! behind it.

use crate::check::FrameClass;
use crate::metrics::percentile;
use crate::procfs::{self, CpuTicks};
use crate::workload::{Input, Pipeline};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};
use vprofile_ids::{IdsEvent, PipelineStats};

/// Everything one timed pass measured.
pub struct Pass {
    /// The class of every event, in arrival order (emptied by
    /// [`Pass::shed`]).
    pub classes: Vec<FrameClass>,
    /// Events received.
    pub frames: usize,
    /// Events carrying `retrain_due`.
    pub retrain_due: u64,
    /// First feed to last event, in seconds.
    pub elapsed_s: f64,
    /// Per-frame latency in microseconds, for frames the reference framer
    /// also found (emptied by [`Pass::shed`] unless kept).
    pub latencies_us: Vec<f64>,
    /// Median of `latencies_us`.
    pub latency_p50_us: f64,
    /// 90th percentile of `latencies_us`.
    pub latency_p90_us: f64,
    /// Time spent inside `feed`, in seconds.
    pub feed_block_s: f64,
    /// Largest lag of a feed behind its due time (open loop), in seconds.
    pub late_max_s: f64,
    /// CPU of the pipeline's threads: process CPU minus the generator's.
    pub pipeline_cpu: CpuTicks,
    /// CPU of the generator thread.
    pub generator_cpu: CpuTicks,
    /// Final counters.
    pub stats: PipelineStats,
    /// Largest per-shard ring depth seen (sampled only when asked).
    pub queue_depth_max: usize,
    /// Largest resident set sampled during the pass, in MiB.
    pub rss_max_mb: f64,
}

impl Pass {
    /// Frees the per-frame vectors once the output check has read them,
    /// keeping the latencies only when `keep_latencies`, so the
    /// generator's memory does not grow with the number of passes.
    pub fn shed(&mut self, keep_latencies: bool) {
        self.classes = Vec::new();
        if !keep_latencies {
            self.latencies_us = Vec::new();
        }
    }
}

/// Events received so far, with receipt-time latency bookkeeping.
struct Receipts<'a> {
    closing: &'a [(u64, usize)],
    classes: Vec<FrameClass>,
    latencies_us: Vec<f64>,
    retrain_due: u64,
    last: Option<Instant>,
}

impl Receipts<'_> {
    fn take(&mut self, event: &IdsEvent, at: Instant, due: &[Instant]) {
        let class = FrameClass::of(event);
        let index = self.classes.len();
        if let Some(&(pos, chunk)) = self.closing.get(index) {
            if pos == class.stream_pos() {
                if let Some(due) = due.get(chunk) {
                    self.latencies_us
                        .push(at.saturating_duration_since(*due).as_secs_f64() * 1e6);
                }
            }
        }
        self.retrain_due += u64::from(event.retrain_due());
        self.classes.push(class);
        self.last = Some(at);
    }

    fn drain(&mut self, pipeline: &Pipeline, due: &[Instant]) {
        while let Ok(event) = pipeline.events().try_recv() {
            self.take(&event, Instant::now(), due);
        }
    }
}

/// Runs one pass on `pipeline`, freshly spawned. `closing` is the
/// reference framer's `(stream position, closing chunk)` list; `paced`
/// holds the open loop's chunk interval. The generator samples the
/// resident set every few chunks, and with `sample_depths` the shard ring
/// depths too.
pub fn run_pass(
    input: &Input,
    mut pipeline: Pipeline,
    closing: &[(u64, usize)],
    paced: Option<Duration>,
    sample_depths: bool,
) -> Result<Pass, String> {
    let chunks = input.chunk_count();
    let cpu_before = procfs::process_cpu().map_err(|e| e.to_string())?;
    let gen_before = procfs::thread_cpu().map_err(|e| e.to_string())?;
    let mut receipts = Receipts {
        closing,
        classes: Vec::with_capacity(closing.len()),
        latencies_us: Vec::with_capacity(closing.len()),
        retrain_due: 0,
        last: None,
    };
    let mut due: Vec<Instant> = Vec::with_capacity(chunks);
    let mut feed_block = Duration::ZERO;
    let mut late_max = Duration::ZERO;
    let mut queue_depth_max = 0;
    let mut rss_max_mb = 0.0f64;
    // Start the schedule a little ahead so the first chunk is not late.
    let start = Instant::now() + Duration::from_millis(1);
    // About every 5 ms of input in both loops: often enough to see the
    // peak, rarely enough that reading procfs costs the generator little.
    let sample_every = if paced.is_some() { 32 } else { 16 };
    for index in 0..chunks {
        let chunk = input.chunk(index);
        let due_at = match paced {
            Some(interval) => {
                let due_at = start + interval * index as u32;
                wait_until(due_at, &pipeline, &mut receipts, &due)?;
                due_at
            }
            None => Instant::now(),
        };
        due.push(due_at);
        let feeding = Instant::now();
        late_max = late_max.max(feeding.saturating_duration_since(due_at));
        pipeline
            .feed(chunk)
            .map_err(|e| format!("feed failed: {e}"))?;
        feed_block += feeding.elapsed();
        receipts.drain(&pipeline, &due);
        if index % sample_every == 0 {
            rss_max_mb = rss_max_mb.max(procfs::rss_mb().map_err(|e| e.to_string())?);
            if sample_depths {
                let depth = pipeline.stats().queue_depths.into_iter().max();
                queue_depth_max = queue_depth_max.max(depth.unwrap_or(0));
            }
        }
    }
    pipeline.close_input();
    while let Ok(event) = pipeline.events().recv() {
        receipts.take(&event, Instant::now(), &due);
    }
    let first = due.first().copied().unwrap_or(start);
    let elapsed_s = receipts.last.map_or(0.0, |last| {
        last.saturating_duration_since(first).as_secs_f64()
    });
    let stats = pipeline.close().map_err(|e| format!("close failed: {e}"))?;
    let generator_cpu = procfs::thread_cpu()
        .map_err(|e| e.to_string())?
        .since(gen_before);
    let process_cpu = procfs::process_cpu()
        .map_err(|e| e.to_string())?
        .since(cpu_before);
    let Receipts {
        classes,
        latencies_us,
        retrain_due,
        ..
    } = receipts;
    Ok(Pass {
        frames: classes.len(),
        classes,
        retrain_due,
        elapsed_s,
        latency_p50_us: percentile(&latencies_us, 0.50),
        latency_p90_us: percentile(&latencies_us, 0.90),
        latencies_us,
        feed_block_s: feed_block.as_secs_f64(),
        late_max_s: late_max.as_secs_f64(),
        pipeline_cpu: process_cpu.since(generator_cpu),
        generator_cpu,
        stats,
        queue_depth_max,
        rss_max_mb,
    })
}

/// Blocks on the event stream until `due_at`, stamping events as they
/// arrive.
fn wait_until(
    due_at: Instant,
    pipeline: &Pipeline,
    receipts: &mut Receipts<'_>,
    due: &[Instant],
) -> Result<(), String> {
    loop {
        let now = Instant::now();
        if now >= due_at {
            return Ok(());
        }
        match pipeline.events().recv_timeout(due_at - now) {
            Ok(event) => receipts.take(&event, Instant::now(), due),
            Err(RecvTimeoutError::Timeout) => return Ok(()),
            Err(RecvTimeoutError::Disconnected) => {
                return Err("event stream ended before the input was closed".into())
            }
        }
    }
}
