//! Per-engine pipeline equivalence: every detection backend, and a fusion
//! of several, must behave identically under sharding, supervisor
//! restarts, and checkpointing.
//!
//! Three invariants, checked for vProfile, Viden, Scission and VoltageIDS
//! through the *same* `IdsPipeline` code path (the last two also for a
//! vprofile + viden + scission `FusionEngine`):
//!
//! * **worker-count identity** — an N-worker run emits byte-identical
//!   events to a single-worker run (online updates disabled, since shared
//!   cluster state may span SAs living on different shards);
//! * **restart identity** — a supervisor-restarted worker produces the
//!   same event stream as an unrestarted one, except for the single
//!   in-flight window that becomes a `Dropped` placeholder;
//! * **checkpoint identity** — the supervisor's checkpoint is a `clone()`
//!   of the engine, so a clone taken mid-stream, with online updates
//!   moving the state, must score the rest of the stream byte-identically
//!   to the engine it was taken from.

use std::sync::Arc;
use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_baselines::{ScissionDetector, VidenDetector, VoltageIdsDetector};
use vprofile_ids::{
    Backend, FusionConfig, FusionEngine, IdsEngine, IdsEvent, IdsPipeline, PipelineConfig,
    PipelineEngine, PipelineStats, UpdatePolicy,
};
use vprofile_vehicle::{CaptureConfig, Vehicle};

/// Trains all four backends on one clean vehicle-B capture and returns an
/// engine per backend, a vprofile + viden + scission fusion of them, and
/// the raw replay stream. Every engine runs under `policy`.
fn engines(
    seed: u64,
    frames: usize,
    policy: UpdatePolicy,
) -> (Vec<IdsEngine>, FusionEngine, Vec<f64>) {
    let vehicle = Vehicle::vehicle_b(seed);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(frames).with_seed(seed))
        .expect("capture");
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();

    let model = Trainer::new(config.clone())
        .train_with_lut(&labeled, &lut)
        .expect("vprofile training");
    let viden = VidenDetector::fit(&labeled, &lut, 6.0).expect("viden training");
    let scission = ScissionDetector::fit(&labeled, &lut, 0.5).expect("scission training");
    let voltageids = VoltageIdsDetector::fit(&labeled, &lut, 0.0).expect("voltageids training");

    let backends = vec![
        Backend::vprofile(model, 2.0),
        Backend::from(viden),
        Backend::from(scission),
        Backend::from(voltageids),
    ];
    let fusion = FusionEngine::new(
        backends[..3].to_vec(),
        config.clone(),
        FusionConfig::default(),
        policy,
    );
    let engines = backends
        .into_iter()
        .map(|b| IdsEngine::with_backend(b, config.clone(), policy))
        .collect();
    let mut stream = Vec::new();
    for frame in capture.frames() {
        stream.extend(frame.trace.to_f64());
    }
    (engines, fusion, stream)
}

fn backend_engines(seed: u64, frames: usize) -> (Vec<IdsEngine>, Vec<f64>) {
    let (engines, _, stream) = engines(seed, frames, UpdatePolicy::disabled());
    (engines, stream)
}

fn run_pipeline<E: PipelineEngine>(
    engine: E,
    config: PipelineConfig,
    stream: &[f64],
) -> (Vec<IdsEvent>, PipelineStats) {
    let mut pipeline = IdsPipeline::spawn_sharded(engine, config);
    for chunk in stream.chunks(8192) {
        pipeline.feed(chunk.to_vec()).expect("feed");
    }
    pipeline.close_input();
    let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
    let (_, stats) = pipeline.close().expect("clean close");
    (events, stats)
}

#[test]
fn every_backend_scores_clean_traffic_through_the_pipeline() {
    let (engines, stream) = backend_engines(31, 400);
    for engine in engines {
        let name = engine.backend_name();
        let (events, stats) =
            run_pipeline(engine, PipelineConfig::default().with_workers(2), &stream);
        assert_eq!(stats.frames, 400, "{name}: one event per frame");
        assert_eq!(
            stats.frames,
            stats.anomalies
                + stats.normals
                + stats.extraction_failures
                + stats.dropped
                + stats.degraded,
            "{name}: counter identity"
        );
        assert_eq!(stats.extraction_failures, 0, "{name}: clean capture");
        assert!(
            stats.normals as f64 / stats.frames as f64 > 0.9,
            "{name}: clean replay must mostly score normal: {stats:?}"
        );
        assert_eq!(events.len() as u64, stats.frames);
    }
}

#[test]
fn n_worker_events_are_byte_identical_to_single_worker_per_backend() {
    let (engines, stream) = backend_engines(37, 400);
    for engine in engines {
        let name = engine.backend_name();
        let (single, _) = run_pipeline(
            engine.clone(),
            PipelineConfig::default().with_workers(1),
            &stream,
        );
        let (quad, quad_stats) =
            run_pipeline(engine, PipelineConfig::default().with_workers(4), &stream);
        assert_eq!(
            serde_json::to_string(&single).expect("serialize"),
            serde_json::to_string(&quad).expect("serialize"),
            "{name}: 4-worker events must match 1-worker byte for byte"
        );
        assert!(
            quad_stats.shard_frames.iter().filter(|&&n| n > 0).count() > 1,
            "{name}: traffic must actually spread over shards: {:?}",
            quad_stats.shard_frames
        );
    }
}

/// Runs `engine` twice on 2 workers, once clean and once with a panic
/// injected at seq 150, and checks the restarted run differs from the
/// clean one only in the in-flight window. Returns the faulted run's stats.
fn assert_restart_reconverges<E: PipelineEngine>(
    name: &str,
    engine: E,
    checkpoint_interval: usize,
    stream: &[f64],
) -> PipelineStats {
    let base = PipelineConfig::default()
        .with_workers(2)
        .with_checkpoint_interval(checkpoint_interval)
        .with_backoff_base_ms(1);
    let (clean, _) = run_pipeline(engine.clone(), base.clone(), stream);
    let faulted_config = base.with_fault_hook(Arc::new(|shard, seq| {
        if seq == 150 {
            panic!("forced panic in shard {shard} at seq {seq}");
        }
    }));
    let (faulted, stats) = run_pipeline(engine, faulted_config, stream);
    assert_eq!(stats.restarts.iter().sum::<u32>(), 1, "{name}: one restart");
    assert_eq!(stats.dropped, 1, "{name}: exactly the in-flight window");
    assert_eq!(clean.len(), faulted.len(), "{name}: same frame count");
    let mut diffs = 0;
    for (c, f) in clean.iter().zip(&faulted) {
        if c == f {
            continue;
        }
        diffs += 1;
        assert!(
            matches!(f, IdsEvent::Dropped { .. }),
            "{name}: the only divergence is the dropped window: {c:?} vs {f:?}"
        );
    }
    assert_eq!(diffs, 1, "{name}: restart must not perturb any other event");
    stats
}

#[test]
fn restarted_worker_reconverges_with_unrestarted_run_per_backend() {
    let (engines, fusion, stream) = engines(41, 400, UpdatePolicy::disabled());
    for engine in engines {
        // Checkpoint every window, so the rollback replays nothing: the
        // restarted run must differ from the clean one in exactly the
        // window in flight at the panic, which becomes Dropped.
        let name = engine.backend_name();
        assert_restart_reconverges(name, engine, 1, &stream);
    }
    // The fused engine restarts through the same supervisor, both from a
    // fresh checkpoint and from one taken before the shard's first frame.
    for interval in [1, 256] {
        let name = format!("fusion (checkpoint every {interval})");
        let stats = assert_restart_reconverges(&name, fusion.clone(), interval, &stream);
        assert_eq!(stats.restarts, vec![1, 0], "{name}");
        assert_eq!(stats.fusion_frames, 399, "{name}: every scored frame fused");
    }
}

/// Feeds `donor` the first half of `stream`, clones it, and feeds the
/// second half to both: the two tails must serialize identically.
fn assert_clone_scores_like_donor<E: Clone>(
    name: &str,
    mut donor: E,
    process: fn(&mut E, &[f64]) -> Vec<IdsEvent>,
    stream: &[f64],
) {
    let (head, tail) = stream.split_at(stream.len() / 2);
    process(&mut donor, head);
    let mut clone = donor.clone();
    let donor_tail = serde_json::to_string(&process(&mut donor, tail)).expect("serialize");
    let clone_tail = serde_json::to_string(&process(&mut clone, tail)).expect("serialize");
    assert_eq!(
        donor_tail, clone_tail,
        "{name}: the clone must score like the donor"
    );
}

#[test]
fn a_cloned_engine_scores_the_rest_of_the_stream_identically() {
    let (engines, fusion, stream) = engines(43, 400, UpdatePolicy::every(1, usize::MAX));
    for engine in engines {
        let name = engine.backend_name();
        assert_clone_scores_like_donor(name, engine, IdsEngine::process_samples, &stream);
    }
    assert_clone_scores_like_donor("fusion", fusion, FusionEngine::process_samples, &stream);
}
