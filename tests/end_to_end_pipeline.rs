//! End-to-end: bus traffic → analog capture → raw sample stream → threaded
//! IDS → alarms, with a foreign device spliced in mid-stream.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vprofile_suite::analog::{Environment, FrameSynthesizer, TransceiverModel};
use vprofile_suite::baselines::VidenDetector;
use vprofile_suite::can::{DataFrame, J1939Id, Pgn, Priority, SourceAddress, WireFrame};
use vprofile_suite::core::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_suite::ids::{
    Backend, FusionConfig, FusionEngine, FusionPipeline, IdsEngine, IdsEvent, IdsPipeline,
    PipelineConfig, PipelineStats, UpdatePolicy,
};
use vprofile_suite::vehicle::{CaptureConfig, Vehicle};

fn trained(
    vehicle: &Vehicle,
    frames: usize,
    seed: u64,
) -> (
    vprofile_suite::core::Model,
    vprofile_suite::vehicle::Capture,
) {
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(frames).with_seed(seed))
        .expect("capture");
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    assert_eq!(extracted.failures, 0);
    let model = Trainer::new(config)
        .train_with_lut(&extracted.labeled(), &vehicle.sa_lut())
        .expect("training");
    (model, capture)
}

#[test]
fn foreign_device_is_flagged_in_the_raw_stream() {
    let vehicle = Vehicle::vehicle_b(77);
    let (model, capture) = trained(&vehicle, 900, 77);

    // The attacker claims the ECM's SA with its own transceiver.
    let mut rng = StdRng::seed_from_u64(0xD0D6E);
    let dongle = TransceiverModel::sample_new(&mut rng);
    let id = J1939Id::new(
        Priority::new(3).expect("priority"),
        Pgn::new(0xF004).expect("pgn"),
        SourceAddress(0x00),
    );
    let spoofed = DataFrame::new(id.into(), &[0x55; 8]).expect("frame");
    let wire = WireFrame::encode(&spoofed);
    let synth = FrameSynthesizer::new(capture.bit_rate_bps(), *capture.adc());

    let mut stream = Vec::new();
    let mut injected = 0usize;
    for (idx, frame) in capture.frames().iter().take(120).enumerate() {
        stream.extend(frame.trace.to_f64());
        if idx % 24 == 23 {
            let trace = synth.synthesize(wire.bits(), &dongle, &Environment::default(), &mut rng);
            stream.extend(trace.to_f64());
            injected += 1;
        }
    }

    let engine = IdsEngine::new(model, 2.0, UpdatePolicy::disabled());
    let pipeline = IdsPipeline::spawn_sharded(
        engine,
        PipelineConfig::default().with_workers(1).with_high_water(4),
    );
    for chunk in stream.chunks(4096) {
        pipeline
            .feed(chunk.to_vec())
            .expect("pipeline accepts chunks");
    }
    let (_, stats) = pipeline.finish().expect("worker joins cleanly");
    assert_eq!(stats.frames as usize, 120 + injected);
    assert_eq!(
        stats.anomalies as usize, injected,
        "exactly the injections alarm"
    );
    assert_eq!(stats.extraction_failures, 0);
}

#[test]
fn hijacked_ecu_is_flagged_and_attributed() {
    // A real vehicle ECU transmits with another ECU's SA: the detector must
    // flag the cluster mismatch and name the true origin.
    use vprofile_suite::core::{AnomalyKind, Detector, Verdict};

    let vehicle = Vehicle::vehicle_b(78);
    let (model, capture) = trained(&vehicle, 900, 78);
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extractor = EdgeSetExtractor::new(config);
    let detector = Detector::with_margin(&model, 2.0);

    // Fresh traffic (different seed) so the probes are out-of-sample.
    let fresh = vehicle
        .capture(&CaptureConfig::default().with_frames(200).with_seed(79))
        .expect("capture");
    let extracted = fresh.extract(&extractor);
    let victim = SourceAddress(0x17); // instrument cluster
    let mut attributed = 0usize;
    let mut total = 0usize;
    for obs in extracted.observations.iter().filter(|o| o.true_ecu == 0)
    // ECM messages…
    {
        let attack = obs.observation.with_sa(victim); // …claiming the IC's SA
        total += 1;
        match detector.classify(&attack) {
            Verdict::Anomaly {
                kind: AnomalyKind::ClusterMismatch { predicted, .. },
            } => {
                if predicted.0 == 0 {
                    attributed += 1;
                }
            }
            other => panic!("expected cluster mismatch, got {other:?}"),
        }
    }
    assert!(total > 20, "test premise: enough ECM traffic");
    assert_eq!(attributed, total, "every attack attributed to the ECM");
}

#[test]
fn stream_replay_matches_per_frame_replay() {
    // Framing from the concatenated stream must reach the same verdicts as
    // classifying each captured frame window individually.
    let vehicle = Vehicle::vehicle_b(80);
    let (model, capture) = trained(&vehicle, 900, 80);
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extractor = EdgeSetExtractor::new(config);
    let detector = vprofile_suite::core::Detector::with_margin(&model, 2.0);

    let take = 50usize;
    let per_frame: Vec<bool> = capture
        .frames()
        .iter()
        .take(take)
        .map(|cf| {
            let obs = extractor.extract(&cf.trace.to_f64()).expect("extracts");
            detector.classify(&obs).is_anomaly()
        })
        .collect();

    let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::disabled());
    let mut stream = Vec::new();
    for frame in capture.frames().iter().take(take) {
        stream.extend(frame.trace.to_f64());
    }
    let mut events = engine.process_samples(&stream);
    if let Some(last) = engine.finish() {
        events.push(last);
    }
    assert_eq!(events.len(), take);
    for (event, &expected) in events.iter().zip(&per_frame) {
        assert_eq!(event.is_anomaly(), expected);
    }
}

#[test]
fn sharded_pipeline_matches_the_single_threaded_engine() {
    // The pipeline frames the stream once, in its router, and workers
    // score each routed segment as the window. At every worker count and
    // chunking the events must be byte-identical to the single-threaded
    // engine's, for one backend and for a vprofile + viden fusion. The
    // chunk sizes cover the three ways a worker gets its window: frames
    // spanning many 97-sample chunks (copied), frames straddling one
    // 8 192-sample boundary, and frames inside one 65 536-sample chunk
    // (borrowed).
    let vehicle = Vehicle::vehicle_b(80);
    let (model, capture) = trained(&vehicle, 900, 80);
    let config = model.config().clone();
    let labeled = capture
        .extract(&EdgeSetExtractor::new(config.clone()))
        .labeled();
    let viden = VidenDetector::fit(&labeled, &vehicle.sa_lut(), 6.0).expect("viden");
    let engine = IdsEngine::new(model.clone(), 2.0, UpdatePolicy::disabled());
    let fusion = FusionEngine::new(
        vec![Backend::vprofile(model, 2.0), Backend::from(viden)],
        config,
        FusionConfig::default(),
        UpdatePolicy::disabled(),
    );
    let stream: Vec<f64> = capture
        .frames()
        .iter()
        .take(200)
        .flat_map(|frame| frame.trace.to_f64())
        .collect();
    assert!(stream.len() > 2 * 65_536, "several frames per large chunk");

    let mut reference = engine.clone();
    let mut expected = reference.process_samples(&stream);
    expected.extend(reference.finish());
    assert_eq!(expected.len(), 200);
    let expected = serde_json::to_string(&expected).expect("serialize");
    let mut fused_reference = fusion.clone();
    let mut fused_expected = fused_reference.process_samples(&stream);
    fused_expected.extend(fused_reference.finish());
    assert_eq!(fused_expected.len(), 200);
    let fused_expected = serde_json::to_string(&fused_expected).expect("serialize");

    let five_way = |stats: &PipelineStats| {
        stats.frames == 200
            && stats.frames
                == stats.anomalies
                    + stats.normals
                    + stats.extraction_failures
                    + stats.dropped
                    + stats.degraded
    };
    for workers in [1, 2, 4] {
        for chunk_len in [97, 8_192, 65_536] {
            let pipeline_config = PipelineConfig::default().with_workers(workers);
            let mut pipeline = IdsPipeline::spawn_sharded(engine.clone(), pipeline_config.clone());
            let mut fused = FusionPipeline::spawn_sharded(fusion.clone(), pipeline_config);
            for chunk in stream.chunks(chunk_len) {
                pipeline.feed(chunk.to_vec()).expect("feed");
                fused.feed(chunk.to_vec()).expect("feed");
            }
            pipeline.close_input();
            fused.close_input();
            let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
            let (_, stats) = pipeline.close().expect("clean close");
            assert_eq!(
                serde_json::to_string(&events).expect("serialize"),
                expected,
                "{workers} workers, {chunk_len}-sample chunks"
            );
            assert!(five_way(&stats), "{stats:?}");
            let events: Vec<IdsEvent> = fused.events().into_iter().collect();
            let (_, stats) = fused.close().expect("clean close");
            assert_eq!(
                serde_json::to_string(&events).expect("serialize"),
                fused_expected,
                "fused, {workers} workers, {chunk_len}-sample chunks"
            );
            assert!(five_way(&stats), "fused: {stats:?}");
        }
    }
}

#[test]
fn bus_off_takeover_is_detected_after_the_victim_goes_silent() {
    // The "induce faults to disable an ECU" campaign (thesis §1.1): the
    // attacker forces the ECM bus-off, then transmits under its SA. The
    // sacrificial phase is invisible to vProfile (no completed frames), but
    // every takeover frame carries the attacker's waveform and must flag.
    use vprofile_suite::experiments::{evaluate_messages, select_margin, MarginObjective};
    use vprofile_suite::experiments::{ExperimentFixture, VehicleKind};
    use vprofile_suite::sigstat::DistanceMetric;
    use vprofile_suite::vehicle::attack::bus_off_takeover_test;

    let fixture = ExperimentFixture::prepare(VehicleKind::B, DistanceMetric::Mahalanobis, 900, 41)
        .expect("fixture");
    let model = fixture.train_model().expect("training");
    let (messages, report) = bus_off_takeover_test(&fixture.test_extracted(), 0, 3);
    assert_eq!(report.frames_sacrificed, 32);
    assert!(report.frames_taken_over > 20, "takeover phase reached");

    let (_, confusion) = select_margin(&model, &messages, MarginObjective::FScore);
    assert!(
        confusion.f_score() > 0.99,
        "takeover detection F {}",
        confusion.f_score()
    );
    // And the fixed-margin path agrees.
    let fixed = evaluate_messages(&model, 2.0, &messages);
    assert_eq!(fixed.false_negatives, 0, "no takeover frame slips through");
}

#[test]
fn period_monitor_learns_real_bus_schedules_and_flags_injection() {
    // The §6.1 recommendation: pair vProfile with a period-based check.
    // Real bus timing includes arbitration delays, so this exercises the
    // monitor's tolerance on simulator-accurate arrival times.
    use vprofile_suite::ids::PeriodMonitor;

    let vehicle = Vehicle::vehicle_b(83);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(1500).with_seed(83))
        .expect("capture");
    let bit_rate = capture.bit_rate_bps();
    let arrivals: Vec<(SourceAddress, f64)> = capture
        .frames()
        .iter()
        .map(|f| {
            (
                f.frame.j1939_id().source_address,
                f.start_bit_time as f64 / f64::from(bit_rate),
            )
        })
        .collect();
    let split = arrivals.len() / 2;
    let mut monitor = PeriodMonitor::learn(&arrivals[..split], 4.0).expect("learns");
    assert!(monitor.sa_count() >= 9, "every scheduled SA learned");

    // Clean replay of the second half: essentially no false alarms.
    let mut false_alarms = 0usize;
    for &(sa, t) in &arrivals[split..] {
        if monitor.observe(sa, t).is_anomaly() {
            false_alarms += 1;
        }
    }
    let fa_rate = false_alarms as f64 / (arrivals.len() - split) as f64;
    assert!(fa_rate < 0.02, "false alarm rate {fa_rate}");

    // An injection burst under the ECM's SA alarms every time.
    let last_t = arrivals.last().expect("non-empty").1;
    monitor.observe(SourceAddress(0x00), last_t + 0.020);
    for k in 1..=5 {
        let verdict = monitor.observe(SourceAddress(0x00), last_t + 0.020 + k as f64 * 0.001);
        assert!(
            verdict.is_anomaly(),
            "injected frame {k} passed: {verdict:?}"
        );
    }
}
