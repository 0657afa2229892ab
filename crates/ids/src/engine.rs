//! The synchronous IDS core: framing → extraction → detection → events,
//! plus the §5.3 online-update policy.

use crate::backend::Backend;
use crate::event::{IdsEvent, ScoredEvent};
use crate::pipeline::seam::ShardEngine;
use crate::{FusionRecord, StreamFramer};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use vprofile::{EdgeSetExtractor, Model, QuarantineSet, ScratchArena, VProfileConfig, Verdict};
use vprofile_can::SourceAddress;
use vprofile_detector_core::{DetectionBackend, VProfileBackend};

/// Nanoseconds since `since`, saturating instead of truncating on the
/// (never-in-practice) u128 → u64 overflow.
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// When and how the engine feeds accepted messages back into the model
/// (thesis §5.3 / Algorithm 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdatePolicy {
    /// Absorb every `interval`-th accepted message into the model
    /// (`0` disables online updates).
    pub interval: usize,
    /// Signal a retrain once any cluster's count reaches this bound — the
    /// thesis' `M` ("a model should not be updated too often … we recommend
    /// training a new model after `N_n` reaches some upper bound `M`").
    pub retrain_bound: usize,
}

impl UpdatePolicy {
    /// No online updates.
    pub fn disabled() -> Self {
        UpdatePolicy {
            interval: 0,
            retrain_bound: usize::MAX,
        }
    }

    /// Update with every `interval`-th accepted message, retraining at
    /// `retrain_bound`.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0` (use [`UpdatePolicy::disabled`]).
    pub fn every(interval: usize, retrain_bound: usize) -> Self {
        assert!(interval > 0, "interval 0 means disabled");
        UpdatePolicy {
            interval,
            retrain_bound,
        }
    }

    /// `true` if updates are active.
    pub fn is_enabled(&self) -> bool {
        self.interval > 0
    }
}

/// The synchronous IDS engine: owns a detection [`Backend`], a framer,
/// and the update policy. See the [crate-level example](crate).
///
/// The engine is backend-agnostic: [`IdsEngine::new`] wires up the
/// classic vProfile detector, while [`IdsEngine::with_backend`] runs any
/// [`Backend`] variant (Viden, Scission, VoltageIDS) through the same
/// framing/extraction/quarantine/update machinery. Framing and extraction
/// parameters come from a [`VProfileConfig`] in either case, since every
/// backend scores the same extracted edge sets.
#[derive(Debug, Clone)]
pub struct IdsEngine {
    backend: Backend,
    config: VProfileConfig,
    extractor: EdgeSetExtractor,
    framer: StreamFramer,
    policy: UpdatePolicy,
    accepted_count: usize,
    quarantine: QuarantineSet,
    /// Online-update poisoning guard: when set, an applied update that
    /// moves the model more than this far from its trained baseline
    /// (backend-defined scalar, see
    /// [`DetectionBackend::update_drift`]) quarantines the absorbing SA.
    drift_guard: Option<f64>,
    /// Per-engine reusable buffers; with these, the steady-state
    /// extract-and-score path of [`IdsEngine::process_window`] performs no
    /// heap allocations (the bench crate's counting allocator enforces
    /// this).
    scratch: ScratchArena,
}

impl IdsEngine {
    /// Creates an engine around a trained vProfile model.
    pub fn new(model: Model, margin: f64, policy: UpdatePolicy) -> Self {
        let config = model.config().clone();
        IdsEngine::with_backend(Backend::vprofile(model, margin), config, policy)
    }

    /// Creates an engine around any detection backend. `config` supplies
    /// the framing and edge-set extraction parameters (backends all score
    /// the same extracted edge sets).
    pub fn with_backend(backend: Backend, config: VProfileConfig, policy: UpdatePolicy) -> Self {
        let framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
        let extractor = EdgeSetExtractor::new(config.clone());
        IdsEngine {
            backend,
            config,
            extractor,
            framer,
            policy,
            accepted_count: 0,
            quarantine: QuarantineSet::new(),
            drift_guard: None,
            scratch: ScratchArena::new(),
        }
    }

    /// Arms the online-update poisoning guard: after every absorption the
    /// engine asks the backend how far applied updates have moved the
    /// model from its trained baseline
    /// ([`DetectionBackend::update_drift`]); past `threshold`, the
    /// absorbing SA is quarantined (degraded mode for that sender) and its
    /// buffered updates are discarded. This is the engine-level catch for
    /// a compromised ECU feeding slowly-drifting frames into `absorb` to
    /// walk the §5.3 update toward its own signature: each step can stay
    /// individually acceptable, but the accumulated displacement cannot.
    ///
    /// Release is the operator's call ([`IdsEngine::release_sa`]) or a
    /// model reinstall ([`IdsEngine::install_model`]), both of which
    /// re-baseline the drift measure.
    pub fn with_drift_guard(mut self, threshold: f64) -> Self {
        self.drift_guard = Some(threshold);
        self
    }

    /// The armed drift-guard threshold, if any.
    pub fn drift_guard(&self) -> Option<f64> {
        self.drift_guard
    }

    /// The framing/extraction configuration the engine was built with.
    pub fn config(&self) -> &VProfileConfig {
        &self.config
    }

    /// The detection backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The backend's stable name (e.g. `"vprofile"`, `"viden"`).
    pub fn backend_name(&self) -> &'static str {
        self.backend.kind().label()
    }

    /// The current vProfile model (reflects online updates), or `None`
    /// when the engine runs a non-vProfile backend.
    pub fn model(&self) -> Option<&Model> {
        self.backend.as_vprofile().map(VProfileBackend::model)
    }

    /// Replaces the vProfile model after an external retrain and resets
    /// the update bookkeeping. On a non-vProfile backend the engine
    /// switches to a vProfile backend with a zero margin (install a full
    /// backend via [`IdsEngine::with_backend`] to control the margin).
    pub fn install_model(&mut self, model: Model) {
        match self.backend.as_vprofile_mut() {
            Some(b) => b.install_model(model),
            None => self.backend = Backend::vprofile(model, 0.0),
        }
        self.accepted_count = 0;
        self.quarantine.clear();
    }

    /// Quarantines an SA from online-update absorption: its observations
    /// are still scored, but never fed back into the model. Any buffered
    /// updates for it are discarded.
    pub fn quarantine_sa(&mut self, sa: u8) {
        self.quarantine.insert(sa);
        self.backend.discard_pending_for(SourceAddress(sa));
    }

    /// Releases one SA from quarantine.
    pub fn release_sa(&mut self, sa: u8) {
        self.quarantine.remove(sa);
    }

    /// Releases every quarantined SA (fault cleared).
    pub fn release_all_quarantined(&mut self) {
        self.quarantine.clear();
    }

    /// The SAs currently quarantined from model updates.
    pub fn quarantined(&self) -> &QuarantineSet {
        &self.quarantine
    }

    /// Feeds raw samples; returns one event per completed frame.
    pub fn process_samples(&mut self, samples: &[f64]) -> Vec<IdsEvent> {
        let windows = self.framer.push(samples);
        let mut events = Vec::with_capacity(windows.len());
        for (stream_pos, window) in windows {
            events.push(self.process_window(stream_pos, &window));
        }
        events
    }

    /// Flushes a trailing unterminated frame at end of stream.
    pub fn finish(&mut self) -> Option<IdsEvent> {
        let (stream_pos, window) = self.framer.flush()?;
        Some(self.process_window(stream_pos, &window))
    }

    /// Classifies one already-framed window.
    // xtask: hot-path
    pub fn process_window(&mut self, stream_pos: u64, window: &[f64]) -> IdsEvent {
        self.process_window_timed(stream_pos, window).0
    }

    /// [`IdsEngine::process_window`] with a per-stage breakdown: returns
    /// `(event, extract_ns, score_ns)` so the pipeline can attribute time
    /// to extraction vs. scoring. The hot path runs through the engine's
    /// [`ScratchArena`]: extraction writes into `scratch.edge_set`, the
    /// nearest-cluster scan into `scratch.distances`, and nothing touches
    /// the allocator in steady state (observations are only materialized
    /// for the occasional online-update absorption or uncached fallback).
    pub fn process_window_timed(
        &mut self,
        stream_pos: u64,
        window: &[f64],
    ) -> (IdsEvent, u64, u64) {
        let extracting = Instant::now();
        let extracted = self.extractor.extract_into(window, &mut self.scratch);
        let extract_ns = elapsed_ns(extracting);
        let scoring = Instant::now();
        let event = match extracted {
            Ok(sa) => {
                let verdict = self.backend.classify_into(&mut self.scratch, sa);
                let mut retrain_due = false;
                if !verdict.is_anomaly()
                    && self.policy.is_enabled()
                    && !self.quarantine.contains(sa.0)
                {
                    self.accepted_count += 1;
                    if self.accepted_count.is_multiple_of(self.policy.interval) {
                        self.backend.absorb(sa, &self.scratch.edge_set);
                        self.drift_guard_check(sa);
                    }
                    retrain_due = self.backend.retrain_due(self.policy.retrain_bound);
                }
                IdsEvent::Scored(ScoredEvent {
                    stream_pos,
                    sa: Some(sa),
                    verdict,
                    extraction_failed: false,
                    retrain_due,
                })
            }
            Err(_) => IdsEvent::Scored(ScoredEvent {
                stream_pos,
                sa: None,
                verdict: Verdict::Anomaly {
                    kind: vprofile::AnomalyKind::UnknownSa {
                        sa: SourceAddress(0xFF),
                    },
                },
                extraction_failed: true,
                retrain_due: false,
            }),
        };
        (event, extract_ns, elapsed_ns(scoring))
    }

    /// Applies any buffered online updates immediately.
    // xtask: cold
    pub fn apply_pending_updates(&mut self) {
        self.backend.apply_pending_updates();
    }

    /// Trips the poisoning drift guard: quarantines `sa` (and drops its
    /// buffered updates) once applied online updates have displaced the
    /// model past the armed threshold.
    // xtask: cold
    fn drift_guard_check(&mut self, sa: SourceAddress) {
        let Some(threshold) = self.drift_guard else {
            return;
        };
        if self.backend.update_drift() > threshold {
            self.quarantine.insert(sa.0);
            self.backend.discard_pending_for(sa);
        }
    }
}

/// The pipeline seam over the inherent methods. A single-backend engine
/// has no fusion telemetry and no voters.
impl ShardEngine for IdsEngine {
    fn config(&self) -> &VProfileConfig {
        &self.config
    }

    fn process_window_shard(
        &mut self,
        stream_pos: u64,
        window: &[f64],
        _shard: usize,
    ) -> (IdsEvent, u64, u64, Option<FusionRecord>) {
        let (event, extract_ns, score_ns) = self.process_window_timed(stream_pos, window);
        (event, extract_ns, score_ns, None)
    }

    fn apply_pending_updates(&mut self) {
        IdsEngine::apply_pending_updates(self);
    }

    fn quarantine_sa(&mut self, sa: u8) {
        IdsEngine::quarantine_sa(self, sa);
    }

    fn release_sa(&mut self, sa: u8) {
        IdsEngine::release_sa(self, sa);
    }

    fn quarantined(&self) -> &QuarantineSet {
        &self.quarantine
    }

    fn voter_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vprofile::{Detector, Trainer, VProfileConfig};
    use vprofile_vehicle::{CaptureConfig, Vehicle};

    fn trained_setup(frames: usize) -> (IdsEngine, vprofile_vehicle::Capture) {
        let vehicle = Vehicle::vehicle_b(17);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(frames).with_seed(17))
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
    fn replayed_capture_produces_one_event_per_frame() {
        let (mut engine, capture) = trained_setup(800);
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(60) {
            stream.extend(frame.trace.to_f64());
        }
        let mut events = engine.process_samples(&stream);
        if let Some(last) = engine.finish() {
            events.push(last);
        }
        assert_eq!(events.len(), 60);
        let anomalies = events.iter().filter(|e| e.is_anomaly()).count();
        assert_eq!(anomalies, 0, "clean replay must not alarm");
        assert!(events.iter().all(|e| !e.extraction_failed()));
    }

    #[test]
    fn events_carry_stream_positions_in_order() {
        let (mut engine, capture) = trained_setup(800);
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(10) {
            stream.extend(frame.trace.to_f64());
        }
        let events = engine.process_samples(&stream);
        assert!(events
            .windows(2)
            .all(|w| w[0].stream_pos() < w[1].stream_pos()));
    }

    #[test]
    fn garbage_window_reports_extraction_failure() {
        let (mut engine, _) = trained_setup(800);
        // A lone dominant blip too short to be a frame.
        let mut stream = vec![1000.0; 200];
        stream.extend(vec![3000.0; 20]);
        stream.extend(vec![1000.0; 600]);
        let events = engine.process_samples(&stream);
        assert_eq!(events.len(), 1);
        assert!(events[0].extraction_failed());
        assert!(events[0].is_anomaly());
    }

    #[test]
    fn cached_detection_matches_direct_classification() {
        let (mut engine, capture) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let extractor = EdgeSetExtractor::new(model.config().clone());
        for (i, frame) in capture.frames().iter().take(30).enumerate() {
            let window = frame.trace.to_f64();
            let event = engine.process_window(i as u64, &window);
            let obs = extractor.extract(&window).unwrap();
            let direct = Detector::with_margin(&model, 2.0).classify(&obs);
            match (*event.verdict().unwrap(), direct) {
                (
                    Verdict::Ok {
                        cluster: a,
                        distance: da,
                    },
                    Verdict::Ok {
                        cluster: b,
                        distance: db,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert!((da - db).abs() < 1e-6, "cached {da} vs direct {db}");
                }
                (a, b) => assert_eq!(a.is_anomaly(), b.is_anomaly(), "{a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn cache_is_rebuilt_across_online_updates() {
        let (engine, capture) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX));
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(80) {
            stream.extend(frame.trace.to_f64());
        }
        // Updates apply in batches of 16 mid-stream, invalidating the cache
        // repeatedly; a stale cache would misscore against the old factors.
        let events = engine.process_samples(&stream);
        assert_eq!(events.len(), 80);
        let anomalies = events.iter().filter(|e| e.is_anomaly()).count();
        assert_eq!(anomalies, 0, "clean replay with updates must not alarm");
    }

    #[test]
    fn online_updates_grow_cluster_counts() {
        let (engine, capture) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let before: usize = model.clusters().iter().map(|c| c.count()).sum();
        let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX));
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(80) {
            stream.extend(frame.trace.to_f64());
        }
        engine.process_samples(&stream);
        engine.apply_pending_updates();
        let after: usize = engine
            .model()
            .unwrap()
            .clusters()
            .iter()
            .map(|c| c.count())
            .sum();
        assert!(after > before, "counts must grow: {before} → {after}");
    }

    #[test]
    fn retrain_bound_is_signalled() {
        let (engine, capture) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let bound = model.clusters().iter().map(|c| c.count()).max().unwrap() + 4;
        let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, bound));
        let mut stream = Vec::new();
        for frame in capture.frames() {
            stream.extend(frame.trace.to_f64());
        }
        let events = engine.process_samples(&stream);
        assert!(
            events.iter().any(|e| e.retrain_due()),
            "retrain flag never raised"
        );
    }

    #[test]
    fn quarantined_sas_are_scored_but_never_absorbed() {
        let (engine, capture) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let before: usize = model.clusters().iter().map(|c| c.count()).sum();
        let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX));
        // Quarantine every possible SA: updates must be fully suppressed.
        for sa in 0..=0xFF {
            engine.quarantine_sa(sa);
        }
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(80) {
            stream.extend(frame.trace.to_f64());
        }
        let events = engine.process_samples(&stream);
        engine.apply_pending_updates();
        assert_eq!(events.len(), 80);
        assert!(
            events.iter().all(|e| e.verdict().is_some()),
            "quarantine must not suppress scoring"
        );
        let after: usize = engine
            .model()
            .unwrap()
            .clusters()
            .iter()
            .map(|c| c.count())
            .sum();
        assert_eq!(after, before, "quarantined SAs must not grow the model");
        assert!(!engine.quarantined().is_empty());
        engine.release_all_quarantined();
        assert!(engine.quarantined().is_empty());
    }

    #[test]
    fn install_model_resets_update_state() {
        let (engine, _) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let mut engine = IdsEngine::new(model.clone(), 2.0, UpdatePolicy::every(1, 10));
        engine.accepted_count = 7;
        engine.install_model(model);
        assert_eq!(engine.accepted_count, 0);
    }

    #[test]
    fn update_policy_constructors() {
        assert!(!UpdatePolicy::disabled().is_enabled());
        assert!(UpdatePolicy::every(3, 100).is_enabled());
    }

    #[test]
    #[should_panic(expected = "interval 0")]
    fn zero_interval_panics() {
        let _ = UpdatePolicy::every(0, 10);
    }
}
