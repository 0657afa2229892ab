//! The workloads: input synthesis (the generator's job), the set-up each
//! pass pays for, and the single-threaded reference passes that the timed
//! runs are checked against.
//!
//! Every workload replays `stress_fleet(8, seed)` traffic: eight ECUs on
//! staggered 12–26 ms schedules, one SA each, so the SA-affine shard hash
//! spreads frames over both workers. A *pass* is one fixed chunk sequence:
//! the workload's replay capture repeated [`Workload::cycles`] times and
//! cut into [`Workload::chunk_len`]-sample chunks. Every pass runs on a
//! freshly spawned pipeline, so with online updates on every pass still
//! produces the same verdicts.

use crate::check::FrameClass;
use std::borrow::Cow;
use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_analog::Fault;
use vprofile_baselines::{ScissionDetector, VidenDetector};
use vprofile_ids::{
    Backend, FusionConfig, FusionEngine, FusionPipeline, IdsEngine, IdsEvent, IdsPipeline,
    PipelineConfig, PipelineError, PipelineStats, StreamFramer, UpdatePolicy,
};
use vprofile_vehicle::adversary::{update_poisoning_capture, AdversaryPlan};
use vprofile_vehicle::scenario::{chaos_stream, stress_fleet};
use vprofile_vehicle::{Capture, CaptureConfig, Vehicle};

/// ECUs in the fleet.
pub const ECUS: usize = 8;
/// Detection workers of every pipeline under test (the reference host
/// has two cores).
pub const WORKERS: usize = 2;
/// Frames in the training session.
pub const TRAIN_FRAMES: usize = 800;
/// Clean frames in one replay of the capture.
pub const REPLAY_FRAMES: usize = 2_000;
/// Chunk size of the closed-loop replays: bulk reads from a capture.
pub const REPLAY_CHUNK: usize = 65_536;
/// Chunk size of the fusion workloads: a DMA-sized block from a live ADC.
pub const DMA_CHUNK: usize = 8_192;
/// The open loop's fixed input rate, in frames per second.
pub const PACED_FRAMES_PER_S: f64 = 10_000.0;
/// One frame in this many of the poisoning workload is the attacker's.
const POISON_EVERY: usize = 5;
/// Final blend of the poisoning walk toward the attacker's signature.
const POISON_DEPTH: f64 = 0.3;
/// Per-sample probability of a capture dropout in the poisoning workload.
const DROPOUT_PROB: f64 = 0.01;
/// vProfile's acceptance margin (the workspace default).
const MARGIN: f64 = 2.0;
/// Drift-guard threshold: the calibration the red-team suite uses.
const DRIFT_GUARD: f64 = 400.0;
/// Absorb every this-many accepted frames.
const UPDATE_INTERVAL: usize = 4;
/// Cluster size at which the update policy asks for a retrain.
const RETRAIN_BOUND: usize = 200;
/// Seed salt of the replayed session, so it is not the training session.
const REPLAY_SALT: u64 = 0x5EED_0F2E_71A7;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, clean capture, vProfile with updates off.
    ReplayClean,
    /// Closed loop, poisoning walk spliced in plus dropout, updates on.
    ReplayPoisonUpdate,
    /// Closed loop, DMA-sized chunks, three-voter fusion, drift-gated
    /// updates.
    ReplayFusion,
    /// [`Workload::ReplayFusion`]'s input and engine in an open loop at a
    /// fixed rate. Runnable by name but not in BENCHMARK.json: on a shared
    /// virtual machine its verdict latency follows the hypervisor's steal
    /// time rather than the program.
    PacedFusion,
}

impl Workload {
    /// Every workload: BENCHMARK.json's, in its order, then
    /// [`Workload::PacedFusion`].
    pub const ALL: [Workload; 4] = [
        Workload::ReplayClean,
        Workload::ReplayPoisonUpdate,
        Workload::ReplayFusion,
        Workload::PacedFusion,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayClean => "replay_clean",
            Workload::ReplayPoisonUpdate => "replay_poison_update",
            Workload::ReplayFusion => "replay_fusion",
            Workload::PacedFusion => "paced_fusion",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Samples per fed chunk.
    pub fn chunk_len(self) -> usize {
        match self {
            Workload::ReplayFusion | Workload::PacedFusion => DMA_CHUNK,
            Workload::ReplayClean | Workload::ReplayPoisonUpdate => REPLAY_CHUNK,
        }
    }

    /// Replays of the capture per pass.
    pub fn cycles(self) -> usize {
        match self {
            Workload::ReplayClean => 12,
            Workload::ReplayPoisonUpdate | Workload::ReplayFusion => 10,
            Workload::PacedFusion => 5,
        }
    }

    /// `true` when chunks are due on a fixed schedule.
    pub fn is_paced(self) -> bool {
        self == Workload::PacedFusion
    }

    /// `true` when online updates make the output depend on the worker
    /// count, so the expected classes come from a two-worker pass.
    pub fn updates_on(self) -> bool {
        self != Workload::ReplayClean
    }
}

/// Everything the generator synthesizes from the seed. The program under
/// test sees only the chunks.
pub struct Input {
    /// The workload.
    pub workload: Workload,
    vehicle: Vehicle,
    training: Capture,
    /// One replay of the workload's capture as a raw sample stream.
    pub replay: Vec<f64>,
    /// Frames transmitted in one replay (before any dropout).
    pub replay_frames: usize,
}

impl Input {
    /// Synthesizes the training session and the replayed stream.
    pub fn generate(workload: Workload, seed: u64) -> Result<Input, String> {
        let vehicle = stress_fleet(ECUS, seed);
        let session = |frames: usize, seed: u64| {
            vehicle
                .capture(&CaptureConfig::default().with_frames(frames).with_seed(seed))
                .map_err(|e| format!("capture failed: {e}"))
        };
        let training = session(TRAIN_FRAMES, seed)?;
        let clean = session(REPLAY_FRAMES, seed ^ REPLAY_SALT)?;
        let (replay, replay_frames) = match workload {
            Workload::ReplayPoisonUpdate => {
                let plan = AdversaryPlan::new(0, POISON_DEPTH, seed);
                let walk =
                    update_poisoning_capture(&vehicle, &plan, REPLAY_FRAMES / (POISON_EVERY - 1))
                        .map_err(|e| format!("poisoning walk failed: {e}"))?;
                let mut frames = Vec::with_capacity(clean.len() + walk.len());
                for (i, frame) in clean.frames().iter().enumerate() {
                    frames.push(frame.clone());
                    if i % (POISON_EVERY - 1) == POISON_EVERY - 2 {
                        if let Some(poison) = walk.frames().get(i / (POISON_EVERY - 1)) {
                            frames.push(poison.clone());
                        }
                    }
                }
                let spliced = Capture::from_frames(
                    "stress fleet with poisoning walk",
                    clean.bit_rate_bps(),
                    *clean.adc(),
                    *clean.env(),
                    frames,
                );
                let dropout = Fault::Dropout {
                    prob: DROPOUT_PROB,
                    max_gap: 4,
                };
                (chaos_stream(&spliced, seed, &[dropout]), spliced.len())
            }
            _ => {
                let mut stream = Vec::new();
                for frame in clean.frames() {
                    frame.trace.extend_f64_into(&mut stream);
                }
                (stream, clean.len())
            }
        };
        Ok(Input {
            workload,
            vehicle,
            training,
            replay,
            replay_frames,
        })
    }

    /// Samples in one pass.
    pub fn pass_samples(&self) -> usize {
        self.replay.len() * self.workload.cycles()
    }

    /// Chunks in one pass.
    pub fn chunk_count(&self) -> usize {
        self.pass_samples().div_ceil(self.workload.chunk_len())
    }

    /// Chunk `index` of the pass, as the owned buffer `feed` takes.
    pub fn chunk(&self, index: usize) -> Vec<f64> {
        self.chunk_view(index).into_owned()
    }

    /// Chunk `index` of the pass, borrowed from the replay unless it wraps
    /// around the replay's end.
    pub fn chunk_view(&self, index: usize) -> Cow<'_, [f64]> {
        let len = self.workload.chunk_len();
        let start = index * len;
        let end = (start + len).min(self.pass_samples());
        let offset = start % self.replay.len();
        if offset + (end - start) <= self.replay.len() {
            return Cow::Borrowed(&self.replay[offset..offset + (end - start)]);
        }
        let mut out = Vec::with_capacity(end - start);
        let mut pos = start;
        while pos < end {
            let offset = pos % self.replay.len();
            let take = (end - pos).min(self.replay.len() - offset);
            out.extend_from_slice(&self.replay[offset..offset + take]);
            pos += take;
        }
        Cow::Owned(out)
    }

    /// The framing and extraction parameters the program derives from the
    /// capture hardware.
    pub fn config(&self) -> VProfileConfig {
        VProfileConfig::for_adc(self.training.adc(), self.training.bit_rate_bps())
    }

    /// The fixed interval between due times of consecutive chunks, in
    /// seconds: a chunk carries `chunk_len / samples_per_frame` frames.
    pub fn chunk_interval_s(&self) -> f64 {
        let samples_per_frame = self.replay.len() as f64 / self.replay_frames as f64;
        self.workload.chunk_len() as f64 / (samples_per_frame * PACED_FRAMES_PER_S)
    }
}

/// The trained detector a pass runs.
#[derive(Clone)]
pub enum Engine {
    /// A single-backend engine.
    Single(IdsEngine),
    /// The three-voter fusion engine.
    Fused(FusionEngine),
}

/// Set-up: extracts the training session, trains vProfile and, for the
/// fusion workload, fits the Viden and Scission voters.
pub fn train(input: &Input) -> Result<Engine, String> {
    let config = input.config();
    let labeled = input
        .training
        .extract(&EdgeSetExtractor::new(config.clone()))
        .labeled();
    let lut = input.vehicle.sa_lut();
    let model = Trainer::new(config.clone())
        .train_with_lut(&labeled, &lut)
        .map_err(|e| format!("training failed: {e}"))?;
    Ok(match input.workload {
        Workload::ReplayClean => {
            Engine::Single(IdsEngine::new(model, MARGIN, UpdatePolicy::disabled()))
        }
        Workload::ReplayPoisonUpdate => Engine::Single(
            IdsEngine::new(
                model,
                MARGIN,
                UpdatePolicy::every(UPDATE_INTERVAL, RETRAIN_BOUND),
            )
            .with_drift_guard(DRIFT_GUARD),
        ),
        Workload::ReplayFusion | Workload::PacedFusion => {
            let viden = VidenDetector::fit(&labeled, &lut, 6.0)
                .map_err(|e| format!("viden fit failed: {e}"))?;
            let scission = ScissionDetector::fit(&labeled, &lut, 0.5)
                .map_err(|e| format!("scission fit failed: {e}"))?;
            let voters = vec![
                Backend::vprofile(model, MARGIN),
                Backend::from(viden),
                Backend::from(scission),
            ];
            Engine::Fused(FusionEngine::new(
                voters,
                config,
                FusionConfig::default(),
                UpdatePolicy::every(1, RETRAIN_BOUND),
            ))
        }
    })
}

/// A running pipeline of either kind, behind the calls the generator
/// makes.
pub enum Pipeline {
    /// [`IdsPipeline`] around a single-backend engine.
    Single(IdsPipeline),
    /// [`FusionPipeline`] around the fusion engine.
    Fused(FusionPipeline),
}

impl Pipeline {
    /// Spawns a [`WORKERS`]-wide pipeline with blocking backpressure.
    pub fn spawn(engine: Engine) -> Pipeline {
        let config = PipelineConfig::default().with_workers(WORKERS);
        match engine {
            Engine::Single(engine) => Pipeline::Single(IdsPipeline::spawn_sharded(engine, config)),
            Engine::Fused(engine) => Pipeline::Fused(FusionPipeline::spawn(engine, config)),
        }
    }

    /// Feeds one chunk.
    pub fn feed(&self, chunk: Vec<f64>) -> Result<(), PipelineError> {
        match self {
            Pipeline::Single(p) => p.feed(chunk),
            Pipeline::Fused(p) => p.feed(chunk),
        }
    }

    /// The ordered event stream.
    pub fn events(&self) -> &crossbeam::channel::Receiver<IdsEvent> {
        match self {
            Pipeline::Single(p) => p.events(),
            Pipeline::Fused(p) => p.events(),
        }
    }

    /// A live counter snapshot.
    pub fn stats(&self) -> PipelineStats {
        match self {
            Pipeline::Single(p) => p.stats(),
            Pipeline::Fused(p) => p.stats(),
        }
    }

    /// Closes the input; the event stream ends once the pipeline drains.
    pub fn close_input(&mut self) {
        match self {
            Pipeline::Single(p) => p.close_input(),
            Pipeline::Fused(p) => p.close_input(),
        }
    }

    /// Joins every pipeline thread and returns the final counters.
    pub fn close(self) -> Result<PipelineStats, PipelineError> {
        match self {
            Pipeline::Single(p) => p.close().map(|(_, stats)| stats),
            Pipeline::Fused(p) => p.close().map(|(_, stats)| stats),
        }
    }
}

/// For every frame of a pass, in framing order: its stream position and
/// the index of the chunk whose arrival closes it. A frame closes in the
/// chunk where its end gap completes, so a frame whose closing gap
/// straddles a chunk boundary belongs to the later chunk; a trailing frame
/// flushed at end of input belongs to the last chunk.
pub fn closing_chunks<C: AsRef<[f64]>>(
    mut framer: StreamFramer,
    chunks: impl IntoIterator<Item = C>,
) -> Vec<(u64, usize)> {
    let mut closes = Vec::new();
    let mut windows = Vec::new();
    let mut last = 0;
    for (index, chunk) in chunks.into_iter().enumerate() {
        framer.push_into(chunk.as_ref(), &mut windows);
        closes.extend(windows.drain(..).map(|(pos, _)| (pos, index)));
        last = index;
    }
    if let Some((pos, _)) = framer.flush() {
        closes.push((pos, last));
    }
    closes
}

/// [`closing_chunks`] over the chunk sequence of one pass.
pub fn pass_closing_chunks(input: &Input) -> Vec<(u64, usize)> {
    let config = input.config();
    let framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
    closing_chunks(
        framer,
        (0..input.chunk_count()).map(|i| input.chunk_view(i)),
    )
}

/// The single-threaded engine's classes over the chunk sequence of one
/// pass: the reference for workloads with updates off.
pub fn single_engine_classes(engine: &IdsEngine, input: &Input) -> Vec<FrameClass> {
    let mut engine = engine.clone();
    let mut classes = Vec::new();
    for index in 0..input.chunk_count() {
        let events = engine.process_samples(&input.chunk_view(index));
        classes.extend(events.iter().map(FrameClass::of));
    }
    classes.extend(engine.finish().iter().map(FrameClass::of));
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Idle at code 100, dominant bits at code 3000, 4 samples per bit; a
    /// frame closes after 8 recessive bits (32 samples).
    fn frame(bits: &[bool]) -> Vec<f64> {
        let mut out = Vec::new();
        for &recessive in bits {
            out.extend(std::iter::repeat_n(
                if recessive { 100.0 } else { 3000.0 },
                4,
            ));
        }
        out
    }

    #[test]
    fn a_frame_whose_closing_gap_straddles_a_chunk_boundary_belongs_to_the_later_chunk() {
        let mut stream = vec![100.0; 40];
        stream.extend(frame(&[false, true, false, false, true, false]));
        let body_end = stream.len();
        stream.extend(vec![100.0; 200]);
        // The gap completes 32 samples after the body; cut 10 samples in.
        let cut = body_end + 10;
        let chunks = [&stream[..cut], &stream[cut..]];
        let closes = closing_chunks(StreamFramer::new(4.0, 1500.0), chunks);
        assert_eq!(closes.len(), 1);
        assert_eq!(closes[0].1, 1, "closing gap straddles the cut");

        // Cut after the gap completes: the frame closes in the first chunk.
        let cut = body_end + 40;
        let chunks = [&stream[..cut], &stream[cut..]];
        let closes = closing_chunks(StreamFramer::new(4.0, 1500.0), chunks);
        assert_eq!(closes.iter().map(|c| c.1).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn an_unterminated_frame_belongs_to_the_last_chunk() {
        let mut stream = vec![100.0; 40];
        stream.extend(frame(&[false, true, false]));
        let chunks = [&stream[..20], &stream[20..30], &stream[30..]];
        let closes = closing_chunks(StreamFramer::new(4.0, 1500.0), chunks);
        assert_eq!(closes.iter().map(|c| c.1).collect::<Vec<_>>(), [2]);
    }
}
