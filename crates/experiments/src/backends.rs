//! Online backend comparison: every [`DetectionBackend`] evaluated on the
//! same capture, through the same streaming machinery.
//!
//! Three measurements per backend, mirroring how a deployment would
//! audition a candidate before promoting it:
//!
//! * **detection quality** — the hijack-imitation test (§4.1's 20 %
//!   SA-rewrite attack) scored per message through the backend's
//!   *streaming* entry point ([`DetectionBackend::classify_into`] over a
//!   [`ScratchArena`]), yielding precision/recall plus the clean-replay
//!   false-positive rate;
//! * **runtime behaviour** — the clean raw sample stream replayed through
//!   a single-worker [`IdsPipeline`], yielding the per-stage wall-clock
//!   breakdown ([`StageBreakdown`]) under each backend;
//! * **agreement with the primary** — the frames of that replay on which
//!   the backend's anomaly/normal call differs from the vProfile row's,
//!   matched by stream position.

use crate::ConfusionMatrix;
use std::collections::BTreeMap;
use vprofile::{
    ClusterId, EdgeSetExtractor, LabeledEdgeSet, ScratchArena, Trainer, VProfileConfig,
    VProfileError, Verdict,
};
use vprofile_baselines::{ScissionDetector, VidenDetector, VoltageIdsDetector};
use vprofile_can::SourceAddress;
use vprofile_detector_core::DetectionBackend;
use vprofile_ids::{
    Backend, FusionConfig, FusionEngine, FusionPipeline, IdsEngine, IdsEvent, IdsPipeline,
    PipelineConfig, PipelineError, StageBreakdown, UpdatePolicy,
};
use vprofile_vehicle::attack::{hijack_imitation_test, HIJACK_PROBABILITY};
use vprofile_vehicle::{CaptureConfig, Vehicle};

/// Failure modes of [`backend_comparison`].
#[derive(Debug)]
pub enum ComparisonError {
    /// A capture could not be synthesized.
    Capture(String),
    /// A backend failed to train.
    Train(VProfileError),
    /// The pipeline replay failed.
    Pipeline(PipelineError),
}

impl std::fmt::Display for ComparisonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComparisonError::Capture(context) => write!(f, "capture failed: {context}"),
            ComparisonError::Train(e) => write!(f, "backend training failed: {e}"),
            ComparisonError::Pipeline(e) => write!(f, "pipeline replay failed: {e}"),
        }
    }
}

impl std::error::Error for ComparisonError {}

impl From<VProfileError> for ComparisonError {
    fn from(e: VProfileError) -> Self {
        ComparisonError::Train(e)
    }
}

impl From<PipelineError> for ComparisonError {
    fn from(e: PipelineError) -> Self {
        ComparisonError::Pipeline(e)
    }
}

/// One backend's scores on the shared evaluation capture.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BackendReport {
    /// The backend's stable name ([`DetectionBackend::name`]).
    pub backend: &'static str,
    /// Hijack-test confusion counts (streamed verdicts).
    pub confusion: ConfusionMatrix,
    /// TP / (TP + FP) on the hijack test.
    pub precision: f64,
    /// TP / (TP + FN) on the hijack test.
    pub recall: f64,
    /// Anomaly rate on the clean replay through the pipeline (lower is
    /// better; the thesis' false-positive test).
    pub false_positive_rate: f64,
    /// Frames replayed through the pipeline.
    pub frames: u64,
    /// Per-stage wall-clock attribution of the clean pipeline replay.
    pub stage_ns: StageBreakdown,
    /// Frames of the clean replay that the vProfile primary scored and on
    /// which this backend made the other anomaly/normal call (0 for the
    /// primary itself).
    pub primary_disagreements: u64,
}

/// Trains vProfile, Viden, Scission, and VoltageIDS on one clean capture
/// and scores each on the hijack-imitation test plus a clean pipeline
/// replay — then scores the drift-aware fusion ensemble of all four on
/// the identical data as a final `fusion` row.
///
/// All rows see identical training data, identical attack messages, and
/// the identical single-worker pipeline configuration, so the reports
/// differ only in the detectors themselves. Each row's disagreements
/// with the vProfile row come from comparing the two replays' event
/// streams by stream position.
///
/// # Errors
///
/// [`ComparisonError`] if the capture, any training run, or the pipeline
/// replay fails.
pub fn backend_comparison(seed: u64, frames: usize) -> Result<Vec<BackendReport>, ComparisonError> {
    let vehicle = Vehicle::vehicle_b(seed);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(frames).with_seed(seed))
        .map_err(|e| ComparisonError::Capture(e.to_string()))?;
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();

    let mut backends = trained_backends(&labeled, &lut, &config)?;
    let attacks = hijack_imitation_test(&extracted, &lut, HIJACK_PROBABILITY, seed);
    let mut stream = Vec::new();
    for frame in capture.frames() {
        stream.extend(frame.trace.to_f64());
    }

    let mut reports = Vec::with_capacity(backends.len() + 1);
    // The first replay's (vProfile's) events, which every row is
    // compared against.
    let mut primary: Option<Vec<IdsEvent>> = None;
    for backend in &mut backends {
        let name = backend.name();
        let mut confusion = ConfusionMatrix::new();
        let mut scratch = ScratchArena::new();
        for message in &attacks {
            scratch.edge_set.clear();
            scratch
                .edge_set
                .extend_from_slice(message.observation.edge_set.samples());
            let verdict = backend.classify_into(&mut scratch, message.observation.sa);
            confusion.record(message.is_attack, verdict.is_anomaly());
        }

        let engine =
            IdsEngine::with_backend(backend.clone(), config.clone(), UpdatePolicy::disabled());
        let mut pipeline =
            IdsPipeline::spawn_sharded(engine, PipelineConfig::default().with_workers(1));
        for chunk in stream.chunks(65_536) {
            pipeline.feed(chunk.to_vec())?;
        }
        pipeline.close_input();
        let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
        let (_, stats) = pipeline.close()?;
        let primary_disagreements = primary
            .as_deref()
            .map_or(0, |primary| disagreements(primary, &events));
        primary.get_or_insert(events);

        reports.push(BackendReport {
            backend: name,
            confusion,
            precision: confusion.precision(),
            recall: confusion.recall(),
            false_positive_rate: clean_fpr(&stats),
            frames: stats.frames,
            stage_ns: stats.stage_ns,
            primary_disagreements,
        });
    }

    // The fusion row: all four backends as first-class voters.
    let fusion = FusionEngine::new(
        backends.clone(),
        config,
        FusionConfig::default(),
        UpdatePolicy::disabled(),
    );
    let mut quality = fusion.clone();
    let mut confusion = ConfusionMatrix::new();
    for message in &attacks {
        let scored = quality.classify_extracted(
            message.observation.sa,
            message.observation.edge_set.samples(),
        );
        confusion.record(message.is_attack, scored.verdict.is_anomaly());
    }
    let mut pipeline =
        FusionPipeline::spawn_sharded(fusion, PipelineConfig::default().with_workers(1));
    for chunk in stream.chunks(65_536) {
        pipeline.feed(chunk.to_vec())?;
    }
    pipeline.close_input();
    let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
    let (_, stats) = pipeline.close()?;
    let primary_disagreements = primary
        .as_deref()
        .map_or(0, |primary| disagreements(primary, &events));
    reports.push(BackendReport {
        backend: "fusion",
        confusion,
        precision: confusion.precision(),
        recall: confusion.recall(),
        false_positive_rate: clean_fpr(&stats),
        frames: stats.frames,
        stage_ns: stats.stage_ns,
        primary_disagreements,
    });
    Ok(reports)
}

/// Frames the primary scored (extraction succeeded) on which the
/// candidate made the other anomaly/normal call, matched by stream
/// position. A candidate frame without a verdict (degraded, dropped or
/// missing) counts as an anomaly call.
fn disagreements(primary: &[IdsEvent], candidate: &[IdsEvent]) -> u64 {
    let calls: BTreeMap<u64, bool> = candidate
        .iter()
        .map(|event| {
            (
                event.stream_pos(),
                event.verdict().is_none_or(Verdict::is_anomaly),
            )
        })
        .collect();
    let disagreeing = primary
        .iter()
        .filter_map(IdsEvent::as_scored)
        .filter(|scored| !scored.extraction_failed)
        .filter(|scored| {
            calls.get(&scored.stream_pos).copied().unwrap_or(true) != scored.verdict.is_anomaly()
        })
        .count();
    disagreeing as u64
}

/// Anomaly rate over the scored frames of a clean replay.
fn clean_fpr(stats: &vprofile_ids::PipelineStats) -> f64 {
    let scored = stats.anomalies + stats.normals;
    if scored == 0 {
        0.0
    } else {
        stats.anomalies as f64 / scored as f64
    }
}

/// Renders the comparison as a markdown table (one row per backend).
pub fn backend_markdown(reports: &[BackendReport]) -> String {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.backend.to_string(),
                format!("{:.4}", r.precision),
                format!("{:.4}", r.recall),
                format!("{:.4}", r.false_positive_rate),
                r.frames.to_string(),
                format!("{:.1}", r.stage_ns.extract_ns as f64 / 1e6),
                format!("{:.1}", r.stage_ns.score_ns as f64 / 1e6),
                r.primary_disagreements.to_string(),
            ]
        })
        .collect();
    crate::markdown_table(
        &[
            "backend",
            "precision",
            "recall",
            "fpr",
            "frames",
            "extract (ms)",
            "score (ms)",
            "primary disagree",
        ],
        &rows,
    )
}

/// Trains the full backend roster on shared data. Baseline detection
/// thresholds follow the values their own test suites converge on:
/// Viden radius 6.0, Scission confidence 0.5, VoltageIDS margin 0.0.
pub(crate) fn trained_backends(
    labeled: &[LabeledEdgeSet],
    lut: &BTreeMap<SourceAddress, ClusterId>,
    config: &VProfileConfig,
) -> Result<Vec<Backend>, ComparisonError> {
    let model = Trainer::new(config.clone()).train_with_lut(labeled, lut)?;
    let viden = VidenDetector::fit(labeled, lut, 6.0).map_err(VProfileError::Numeric)?;
    let scission = ScissionDetector::fit(labeled, lut, 0.5).map_err(VProfileError::Numeric)?;
    let voltageids = VoltageIdsDetector::fit(labeled, lut, 0.0).map_err(VProfileError::Numeric)?;
    Ok(vec![
        Backend::vprofile(model, 2.0),
        Backend::from(viden),
        Backend::from(scission),
        Backend::from(voltageids),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_covers_all_backends_with_sane_metrics() {
        let reports = backend_comparison(51, 400).expect("comparison");
        let names: Vec<&str> = reports.iter().map(|r| r.backend).collect();
        assert_eq!(
            names,
            ["vprofile", "viden", "scission", "voltage-ids", "fusion"]
        );
        for report in &reports {
            let name = report.backend;
            assert_eq!(report.frames, 400, "{name}: full clean replay");
            assert!(
                (0.0..=1.0).contains(&report.precision),
                "{name}: precision in range"
            );
            assert!(
                report.recall > 0.5,
                "{name}: the hijack test must be mostly caught: {report:?}"
            );
            assert!(
                report.false_positive_rate < 0.2,
                "{name}: clean replay must mostly pass: {report:?}"
            );
            assert!(
                report.stage_ns.score_ns > 0,
                "{name}: pipeline replay must attribute scoring time"
            );
        }
        let table = backend_markdown(&reports);
        for name in names {
            assert!(table.contains(name), "table must list {name}:\n{table}");
        }
        assert!(table.contains("primary disagree"), "table: {table}");
    }

    /// Seed 29 is a capture on which voltage-ids disagrees with vProfile
    /// on some frames, so a broken comparison shows.
    #[test]
    fn disagreements_with_the_primary_are_counted_by_stream_position() {
        let reports = backend_comparison(29, 400).expect("comparison");
        let counts: Vec<u64> = reports.iter().map(|r| r.primary_disagreements).collect();
        assert_eq!(counts, [0, 0, 0, 3, 0], "{reports:?}");
    }

    /// ISSUE 8 acceptance: the fused verdict is at least as good as every
    /// single voter on all three headline metrics.
    #[test]
    fn fusion_beats_every_single_backend() {
        let reports = backend_comparison(51, 400).expect("comparison");
        let fusion = reports
            .iter()
            .find(|r| r.backend == "fusion")
            .expect("fusion row");
        for report in reports.iter().filter(|r| r.backend != "fusion") {
            let name = report.backend;
            assert!(
                fusion.precision >= report.precision,
                "fusion precision {} must be >= {name}'s {}",
                fusion.precision,
                report.precision
            );
            assert!(
                fusion.recall >= report.recall,
                "fusion recall {} must be >= {name}'s {}",
                fusion.recall,
                report.recall
            );
            assert!(
                fusion.false_positive_rate <= report.false_positive_rate,
                "fusion clean FPR {} must be <= {name}'s {}",
                fusion.false_positive_rate,
                report.false_positive_rate
            );
        }
    }
}
