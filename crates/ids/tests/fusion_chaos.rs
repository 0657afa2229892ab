//! Fusion chaos: losing one ensemble voter mid-stream (ISSUE 8
//! satellite).
//!
//! The claims pinned here:
//!
//! 1. **Byte-determinism** — with the fault injected at a fixed stream
//!    position, two identical runs produce byte-identical event streams,
//!    at any worker count;
//! 2. **Graceful degradation** — the voter loss surfaces as exactly one
//!    backend-attributed [`IdsEvent::Degraded`] frame per affected shard
//!    ensemble, never as a false `Anomaly`, and the five-way counter
//!    identity survives;
//! 3. **Reweighted continuation** — the ensemble keeps scoring normal
//!    traffic as normal after the loss, with the dead voter suspended in
//!    the closed-out engines and the outage recorded in the drift ledger.

use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_baselines::{ScissionDetector, VidenDetector};
use vprofile_ids::{
    Backend, DegradeReason, FusionConfig, FusionEngine, FusionPipeline, IdsEvent, OutageCause,
    PipelineConfig, UpdatePolicy,
};
use vprofile_vehicle::scenario::stress_fleet;
use vprofile_vehicle::CaptureConfig;

/// Trains a three-voter ensemble on a clean stress-fleet capture and
/// returns it with the replay stream.
fn fusion_setup(frames: usize, seed: u64) -> (FusionEngine, Vec<f64>) {
    let vehicle = stress_fleet(8, seed);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(frames).with_seed(seed))
        .expect("capture");
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    assert_eq!(extracted.failures, 0, "training traffic must be clean");
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();
    let model = Trainer::new(config.clone())
        .train_with_lut(&labeled, &lut)
        .expect("training");
    let voters = vec![
        Backend::vprofile(model, 2.0),
        Backend::from(VidenDetector::fit(&labeled, &lut, 6.0).expect("viden training")),
        Backend::from(ScissionDetector::fit(&labeled, &lut, 0.5).expect("scission training")),
    ];
    let engine = FusionEngine::new(
        voters,
        config,
        FusionConfig::default(),
        UpdatePolicy::disabled(),
    );
    let mut stream = Vec::new();
    for frame in capture.frames() {
        stream.extend(frame.trace.to_f64());
    }
    (engine, stream)
}

fn run(engine: FusionEngine, workers: usize, stream: &[f64]) -> (Vec<IdsEvent>, FusionRunOutcome) {
    let mut pipeline =
        FusionPipeline::spawn_sharded(engine, PipelineConfig::default().with_workers(workers));
    for chunk in stream.chunks(65_536) {
        pipeline.feed(chunk.to_vec()).expect("feed");
    }
    pipeline.close_input();
    let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
    let outage_ledger = pipeline.ledger().outage_count();
    let (engines, stats) = pipeline.close().expect("clean close");
    (
        events,
        FusionRunOutcome {
            engines,
            stats,
            outage_ledger,
        },
    )
}

struct FusionRunOutcome {
    engines: Vec<FusionEngine>,
    stats: vprofile_ids::PipelineStats,
    outage_ledger: usize,
}

#[test]
fn killing_a_voter_mid_stream_degrades_gracefully_and_stays_deterministic() {
    let (engine, stream) = fusion_setup(512, 3001);
    let kill_pos = (stream.len() / 2) as u64;
    // Voter 2 (the Scission-style detector) dies halfway through.
    let engine = engine.with_kill_at(2, kill_pos);

    // Single worker: the whole stream shares one ensemble, so the loss is
    // exactly one transition.
    let (events, outcome) = run(engine.clone(), 1, &stream);
    let stats = &outcome.stats;
    assert_eq!(
        stats.frames,
        stats.anomalies
            + stats.normals
            + stats.extraction_failures
            + stats.dropped
            + stats.degraded,
        "five-way identity: {stats:?}"
    );
    assert_eq!(stats.anomalies, 0, "a voter outage is not an attack");
    assert_eq!(
        stats.voter_outages, 1,
        "exactly one outage transition: {stats:?}"
    );
    assert_eq!(stats.degraded, 1, "the transition consumes one frame");
    assert_eq!(outcome.outage_ledger, 1, "the ledger records the outage");

    let degraded: Vec<&IdsEvent> = events.iter().filter(|e| e.is_degraded()).collect();
    assert_eq!(degraded.len(), 1);
    match degraded[0] {
        IdsEvent::Degraded {
            stream_pos, reason, ..
        } => {
            assert!(*stream_pos >= kill_pos, "the fault lands at the kill point");
            match reason {
                DegradeReason::VoterOutage {
                    voter,
                    backend,
                    cause,
                } => {
                    assert_eq!(*voter, 2);
                    assert_eq!(backend.label(), "scission");
                    assert_eq!(*cause, OutageCause::Fault);
                }
                other => panic!("expected a VoterOutage reason, got {other:?}"),
            }
        }
        other => panic!("expected a Degraded event, got {other:?}"),
    }

    // Reweighted continuation: traffic after the loss still scores normal.
    let post_outage_normals = events
        .iter()
        .filter(|e| e.stream_pos() > kill_pos && !e.is_degraded())
        .inspect(|e| {
            assert!(
                !e.is_anomaly(),
                "the two surviving voters must keep clean traffic clean: {e:?}"
            );
        })
        .count();
    assert!(
        post_outage_normals > 100,
        "plenty of frames follow the kill"
    );
    assert!(
        outcome.engines[0].suspended(2),
        "the dead voter stays suspended (killed, never readmitted)"
    );
    assert!(
        !outcome.engines[0].suspended(0) && !outcome.engines[0].suspended(1),
        "the survivors stay live"
    );

    // Byte-determinism at a fixed worker count: the fault is keyed on
    // stream position, so two identical runs agree exactly.
    for workers in [1usize, 4] {
        let (a, oa) = run(engine.clone(), workers, &stream);
        let (b, ob) = run(engine.clone(), workers, &stream);
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize"),
            "fused event stream must be byte-deterministic at {workers} workers"
        );
        assert_eq!(oa.stats.voter_outages, ob.stats.voter_outages);
        assert_eq!(
            oa.stats.anomalies, 0,
            "no false anomalies at any worker count"
        );
        assert_eq!(ob.stats.anomalies, 0);
        assert_eq!(oa.outage_ledger, ob.outage_ledger);
    }
}
