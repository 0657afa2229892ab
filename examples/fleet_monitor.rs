//! Fleet monitor: a streaming IDS tapping the raw bus voltage.
//!
//! A foreign dongle (a transceiver the model has never seen) is spliced
//! into the bus mid-capture and impersonates the brake controller; the
//! threaded pipeline flags it from the analog waveform alone.
//!
//! ```sh
//! cargo run --release --example fleet_monitor
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vprofile_suite::analog::{Environment, FrameSynthesizer, TransceiverModel};
use vprofile_suite::can::{DataFrame, J1939Id, Pgn, Priority, SourceAddress, WireFrame};
use vprofile_suite::core::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_suite::ids::{IdsEngine, IdsPipeline, PipelineConfig, UpdatePolicy};
use vprofile_suite::vehicle::{CaptureConfig, Vehicle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vehicle = Vehicle::vehicle_b(99);
    let capture = vehicle.capture(&CaptureConfig::default().with_frames(1200).with_seed(99))?;
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());

    // Train on the capture.
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let model =
        Trainer::new(config.clone()).train_with_lut(&extracted.labeled(), &vehicle.sa_lut())?;
    println!(
        "trained on {} frames from {}",
        capture.len(),
        vehicle.name()
    );

    // The attacker: a foreign transceiver claiming the brake controller's
    // SA (0x0B) with a plausible-looking EBC1 frame.
    let mut rng = StdRng::seed_from_u64(1234);
    let dongle = TransceiverModel::sample_new(&mut rng);
    let spoofed_id = J1939Id::new(Priority::new(3)?, Pgn::new(0xF001)?, SourceAddress(0x0B));
    let spoofed = DataFrame::new(spoofed_id.into(), &[0xFF; 8])?;
    let synth = FrameSynthesizer::new(capture.bit_rate_bps(), *capture.adc());
    let wire = WireFrame::encode(&spoofed);

    // Build the raw stream: 300 legitimate frames with 10 injections.
    let mut stream = Vec::new();
    let mut injected_at = Vec::new();
    for (idx, frame) in capture.frames().iter().take(300).enumerate() {
        stream.extend(frame.trace.to_f64());
        if idx % 30 == 29 {
            injected_at.push(idx);
            let trace = synth.synthesize(wire.bits(), &dongle, &Environment::default(), &mut rng);
            stream.extend(trace.to_f64());
        }
    }
    println!(
        "streaming {} samples with {} injected frames …",
        stream.len(),
        injected_at.len()
    );

    // Spin up the threaded monitor and feed ADC-sized chunks.
    let engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(4, 100_000));
    let pipeline = IdsPipeline::spawn_sharded(
        engine,
        PipelineConfig::default().with_workers(1).with_high_water(8),
    );
    for chunk in stream.chunks(4096) {
        pipeline
            .feed(chunk.to_vec())
            .expect("pipeline accepts chunks");
    }
    let (engine, stats) = pipeline.finish().expect("worker joins cleanly");

    println!(
        "monitor saw {} frames: {} anomalies, {} unparseable",
        stats.frames, stats.anomalies, stats.extraction_failures
    );
    println!(
        "model absorbed online updates; ECU 0 now holds {} edge sets",
        engine.model().unwrap().clusters()[0].count()
    );
    assert_eq!(
        stats.anomalies as usize,
        injected_at.len(),
        "every injection (and nothing else) should alarm"
    );
    println!(
        "all {} injections detected, zero false alarms",
        injected_at.len()
    );
    Ok(())
}
