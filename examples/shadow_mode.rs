//! Shadow mode: audition candidate backends against live traffic.
//!
//! A vProfile engine stays the production detector while a Viden and a
//! Scission candidate each run in a pipeline of their own, fed the same
//! sample chunks. Only the primary's events would reach an operator; the
//! candidates' events are compared with the primary's by stream position,
//! and every frame where a candidate's anomaly/normal call differs from
//! the primary's counts against that candidate. That count is the
//! evidence you would use to promote (or reject) a candidate backend.
//!
//! ```sh
//! cargo run --release --example shadow_mode
//! ```

use std::collections::BTreeMap;
use vprofile_suite::baselines::{ScissionDetector, VidenDetector};
use vprofile_suite::core::{EdgeSetExtractor, Trainer, VProfileConfig, Verdict};
use vprofile_suite::ids::{
    Backend, IdsEngine, IdsEvent, IdsPipeline, PipelineConfig, UpdatePolicy,
};
use vprofile_suite::vehicle::{CaptureConfig, Vehicle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One clean capture trains the production model and both candidates.
    let vehicle = Vehicle::vehicle_b(7);
    let capture = vehicle.capture(&CaptureConfig::default().with_frames(600).with_seed(7))?;
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();

    let model = Trainer::new(config.clone()).train_with_lut(&labeled, &lut)?;
    let primary = IdsEngine::new(model, 2.0, UpdatePolicy::disabled());

    // Two candidates: a reasonably tuned Viden and a deliberately
    // over-tight Scission (min confidence 0.999) so the demo has
    // disagreements to show.
    let viden = IdsEngine::with_backend(
        Backend::from(VidenDetector::fit(&labeled, &lut, 6.0)?),
        config.clone(),
        UpdatePolicy::disabled(),
    );
    let scission = IdsEngine::with_backend(
        Backend::from(ScissionDetector::fit(&labeled, &lut, 0.999)?),
        config,
        UpdatePolicy::disabled(),
    );
    let names = ["viden", "scission"];

    // One ordinary pipeline per engine, primary first, each fed every
    // chunk of the "live" stream.
    let mut pipelines: Vec<IdsPipeline> = [primary, viden, scission]
        .into_iter()
        .map(|engine| IdsPipeline::spawn_sharded(engine, PipelineConfig::default().with_workers(2)))
        .collect();
    let mut stream = Vec::new();
    for frame in capture.frames() {
        stream.extend(frame.trace.to_f64());
    }
    for chunk in stream.chunks(8192) {
        for pipeline in &pipelines {
            pipeline.feed(chunk.to_vec())?;
        }
    }
    let mut replays: Vec<Vec<IdsEvent>> = Vec::with_capacity(pipelines.len());
    for mut pipeline in pipelines.drain(..) {
        pipeline.close_input();
        replays.push(pipeline.events().into_iter().collect());
        pipeline.close()?;
    }
    let (primary_events, candidate_events) = replays.split_at(1);

    // Each candidate's events keyed by the stream position of their frame.
    let candidates: Vec<BTreeMap<u64, &IdsEvent>> = candidate_events
        .iter()
        .map(|events| events.iter().map(|e| (e.stream_pos(), e)).collect())
        .collect();

    // Only frames the primary scored carry a call to disagree with. A
    // candidate frame without a verdict (degraded or dropped) counts as
    // an anomaly call.
    let mut compared = 0u64;
    let mut disagreements = vec![0u64; candidates.len()];
    let mut disagreement_frames = 0u64;
    let mut anomalies = 0u64;
    for event in &primary_events[0] {
        anomalies += u64::from(event.is_anomaly());
        let Some(scored) = event.as_scored().filter(|s| !s.extraction_failed) else {
            continue;
        };
        compared += 1;
        let primary_anomaly = scored.verdict.is_anomaly();
        let calls: Vec<Option<&IdsEvent>> = candidates
            .iter()
            .map(|events| events.get(&scored.stream_pos).copied())
            .collect();
        let disagrees: Vec<bool> = calls
            .iter()
            .map(|call| {
                call.and_then(IdsEvent::verdict)
                    .is_none_or(Verdict::is_anomaly)
            })
            .map(|candidate_anomaly| candidate_anomaly != primary_anomaly)
            .collect();
        if !disagrees.contains(&true) {
            continue;
        }
        if disagreement_frames == 0 {
            println!(
                "first disagreement at stream position {} (primary anomaly: {primary_anomaly}):",
                scored.stream_pos
            );
            for ((name, call), disagree) in names.iter().zip(&calls).zip(&disagrees) {
                let verdict = call
                    .and_then(IdsEvent::verdict)
                    .map_or_else(|| "no verdict".to_string(), |v| format!("{v:?}"));
                let call = if *disagree { "DISAGREES" } else { "agrees" };
                println!("  {name:>12}: {verdict} ({call})");
            }
        }
        disagreement_frames += 1;
        for (count, disagree) in disagreements.iter_mut().zip(&disagrees) {
            *count += u64::from(*disagree);
        }
    }

    println!();
    println!(
        "{} frames scored by the primary ({anomalies} anomalies), {compared} compared",
        primary_events[0].len()
    );
    for (index, (name, count)) in names.iter().zip(&disagreements).enumerate() {
        println!(
            "candidate #{index} ({name}): disagreed on {count} of {compared} frames ({:.1}%)",
            *count as f64 * 100.0 / compared as f64
        );
    }
    println!("{disagreement_frames} frames had at least one disagreeing candidate");
    println!();
    println!(
        "verdict: viden tracks the primary closely; the over-tight scission \
         candidate would have flooded the bus with false alarms — auditioning \
         it beside the primary caught that without a single bad verdict \
         reaching production."
    );
    Ok(())
}
