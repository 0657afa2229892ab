//! The reference [`DetectionBackend`]: vProfile's Mahalanobis
//! nearest-cluster detector with batched scoring and §5.3 online updates.

use crate::DetectionBackend;
use vprofile::{Detector, EdgeSet, LabeledEdgeSet, Model, ScoringCache, ScratchArena, Verdict};
use vprofile_can::SourceAddress;

/// How many absorbed observations are buffered before an online update is
/// applied, amortizing the cache refactorization.
const UPDATE_BATCH: usize = 16;

/// Lifecycle of the backend's batched-scoring cache.
///
/// The cache stacks every cluster's inverse Cholesky factor (see
/// [`ScoringCache`]), so it must be rebuilt whenever the model changes. It
/// starts `Stale`, is built lazily on the first scored frame, and is
/// invalidated by online updates and model installs. A model the cache
/// cannot be built for (e.g. Euclidean-trained without covariances, or
/// gone singular) parks in `Unavailable` so scoring falls back to the
/// per-cluster path without retrying the build on every frame.
#[derive(Debug, Clone)]
enum CacheState {
    /// No cache; build one before the next frame.
    Stale,
    /// Valid for the current model version.
    Ready(ScoringCache),
    /// Building failed for this model version; use the uncached path.
    Unavailable,
}

/// vProfile's trained model plus the mutable scoring state the streaming
/// pipeline needs: the batched-scoring cache and the pending
/// online-update buffer.
///
/// This is the logic that used to live inside `ids::IdsEngine`, extracted
/// so the engine can treat vProfile as one [`DetectionBackend`] among
/// several. The steady-state [`DetectionBackend::classify_into`] path
/// performs no heap allocations (enforced by the bench crate's counting
/// allocator).
#[derive(Debug, Clone)]
pub struct VProfileBackend {
    model: Model,
    margin: f64,
    cache: CacheState,
    pending: Vec<LabeledEdgeSet>,
    /// Cluster means as of the last train/install, the reference the
    /// poisoning drift guard measures against.
    baseline_means: Vec<Vec<f64>>,
}

/// Snapshots every cluster mean of `model` for drift measurement.
fn baseline_of(model: &Model) -> Vec<Vec<f64>> {
    model.clusters().iter().map(|c| c.mean().to_vec()).collect()
}

impl VProfileBackend {
    /// Wraps a trained model with the thesis' threshold margin `k`.
    pub fn new(model: Model, margin: f64) -> Self {
        let baseline_means = baseline_of(&model);
        VProfileBackend {
            model,
            margin,
            cache: CacheState::Stale,
            pending: Vec::new(),
            baseline_means,
        }
    }

    /// The current model (reflects online updates).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The detection threshold margin.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Replaces the model after an external retrain, dropping buffered
    /// updates and invalidating the scoring cache.
    pub fn install_model(&mut self, model: Model) {
        self.baseline_means = baseline_of(&model);
        self.model = model;
        self.pending.clear();
        self.cache = CacheState::Stale;
    }

    /// Rebuilds the batched scoring cache if the model changed since the
    /// last frame.
    // xtask: cold
    fn ensure_cache(&mut self) {
        if matches!(self.cache, CacheState::Stale) {
            self.cache = match ScoringCache::build(&self.model) {
                Ok(cache) => CacheState::Ready(cache),
                Err(_) => CacheState::Unavailable,
            };
        }
    }
}

impl DetectionBackend for VProfileBackend {
    fn name(&self) -> &'static str {
        "vprofile"
    }

    // xtask: hot-path
    fn classify_into(&mut self, scratch: &mut ScratchArena, sa: SourceAddress) -> Verdict {
        self.ensure_cache();
        let detector = Detector::with_margin(&self.model, self.margin);
        let ScratchArena {
            edge_set,
            distances,
            ..
        } = scratch;
        match &self.cache {
            CacheState::Ready(cache) => {
                detector.classify_cached_with(sa, edge_set, cache, distances)
            }
            CacheState::Stale | CacheState::Unavailable => {
                classify_uncached(&detector, sa, edge_set)
            }
        }
    }

    // xtask: cold
    fn absorb(&mut self, sa: SourceAddress, edge_set: &[f64]) {
        let obs = LabeledEdgeSet::new(sa, EdgeSet::new(edge_set.to_vec()));
        self.pending.push(obs);
        // Batch pending updates to amortize refactorization.
        if self.pending.len() >= UPDATE_BATCH {
            self.apply_pending_updates();
        }
    }

    // xtask: cold
    fn apply_pending_updates(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        // A failed update (e.g. covariance went singular) is dropped: the
        // previous model stays in force, which is the safe behaviour for a
        // monitor.
        let _ = self.model.update_online(&batch);
        // The stacked factors snapshot the covariances; any applied update
        // invalidates them.
        self.cache = CacheState::Stale;
    }

    fn discard_pending_for(&mut self, sa: SourceAddress) {
        self.pending.retain(|o| o.sa != sa);
    }

    fn retrain_due(&self, bound: usize) -> bool {
        self.model.needs_retrain(bound)
    }

    // xtask: cold
    fn update_drift(&self) -> f64 {
        let mut worst = 0.0f64;
        for (cluster, base) in self.model.clusters().iter().zip(&self.baseline_means) {
            if cluster.mean().len() != base.len() {
                continue;
            }
            let sq: f64 = cluster
                .mean()
                .iter()
                .zip(base)
                .map(|(a, b)| {
                    let d = a - b;
                    d * d
                })
                .sum();
            let d = sq.sqrt();
            if d > worst {
                worst = d;
            }
        }
        worst
    }

    fn calibrated_score(&self, sa: SourceAddress, verdict: &Verdict) -> Option<f64> {
        let _ = sa;
        // Accepted frames: vProfile knows the exact per-cluster limit
        // (`max_distance + margin`), so scale the distance against it —
        // sharper than the default's unitless squash. Everything else
        // already carries its limit in the verdict; fall through.
        if let Verdict::Ok { cluster, distance } = verdict {
            if let Some(stats) = self.model.clusters().get(cluster.0) {
                let limit = stats.max_distance() + self.margin;
                if limit > f64::EPSILON {
                    return Some(0.5 * (distance / limit).clamp(0.0, 1.0));
                }
            }
        }
        crate::default_calibration(verdict)
    }
}

/// Slow-path classification for the rare windows scored while the
/// scoring cache is stale (model just installed or invalidated by an
/// online update): builds an owned observation and runs the uncached
/// detector. The next `ensure_cache` rebuild returns scoring to the
/// zero-alloc cached path.
// xtask: cold
fn classify_uncached(detector: &Detector<'_>, sa: SourceAddress, edge_set: &[f64]) -> Verdict {
    let obs = LabeledEdgeSet::new(sa, EdgeSet::new(edge_set.to_vec()));
    detector.classify(&obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
    use vprofile_vehicle::{CaptureConfig, Vehicle};

    fn trained() -> (VProfileBackend, Vec<LabeledEdgeSet>) {
        let vehicle = Vehicle::vehicle_b(17);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(400).with_seed(17))
            .unwrap();
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
        let labeled = extracted.labeled();
        let model = Trainer::new(config)
            .train_with_lut(&labeled, &vehicle.sa_lut())
            .unwrap();
        (VProfileBackend::new(model, 2.0), labeled)
    }

    #[test]
    fn classify_into_matches_direct_detector() {
        let (mut backend, observations) = trained();
        let model = backend.model().clone();
        let mut scratch = ScratchArena::new();
        for obs in observations.iter().take(40) {
            scratch.edge_set.clear();
            scratch.edge_set.extend_from_slice(obs.edge_set.samples());
            let cached = backend.classify_into(&mut scratch, obs.sa);
            let direct = Detector::with_margin(&model, 2.0).classify(obs);
            match (cached, direct) {
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
    fn absorb_batches_and_grows_counts() {
        let (mut backend, observations) = trained();
        let before: usize = backend.model().clusters().iter().map(|c| c.count()).sum();
        for obs in observations.iter().take(40) {
            backend.absorb(obs.sa, obs.edge_set.samples());
        }
        backend.apply_pending_updates();
        let after: usize = backend.model().clusters().iter().map(|c| c.count()).sum();
        assert!(after > before, "counts must grow: {before} → {after}");
    }

    #[test]
    fn discard_pending_suppresses_quarantined_sa() {
        let (mut backend, observations) = trained();
        let before: usize = backend.model().clusters().iter().map(|c| c.count()).sum();
        let sa = observations[0].sa;
        for obs in observations.iter().filter(|o| o.sa == sa).take(8) {
            backend.absorb(obs.sa, obs.edge_set.samples());
        }
        backend.discard_pending_for(sa);
        backend.apply_pending_updates();
        let after: usize = backend.model().clusters().iter().map(|c| c.count()).sum();
        assert_eq!(after, before, "discarded updates must not grow the model");
    }

    #[test]
    fn update_drift_tracks_mean_movement_and_resets_on_install() {
        let (mut backend, observations) = trained();
        assert!(
            backend.update_drift().abs() < 1e-12,
            "fresh model: no drift"
        );

        // Absorb shifted copies of one SA's observations: the cluster mean
        // must move and the drift measure must see it.
        let sa = observations[0].sa;
        let donors: Vec<&LabeledEdgeSet> = observations
            .iter()
            .filter(|o| o.sa == sa)
            .take(32)
            .collect();
        for obs in &donors {
            let shifted: Vec<f64> = obs.edge_set.samples().iter().map(|s| s + 50.0).collect();
            backend.absorb(sa, &shifted);
        }
        backend.apply_pending_updates();
        let drifted = backend.update_drift();
        assert!(drifted > 0.0, "absorbed shift must register as drift");

        // Re-installing a model re-baselines: drift returns to zero.
        let model = backend.model().clone();
        backend.install_model(model);
        assert!(backend.update_drift().abs() < 1e-12, "install resets drift");
    }

    #[test]
    fn calibrated_score_tracks_cluster_limits() {
        let (mut backend, observations) = trained();
        let mut scratch = ScratchArena::new();
        for obs in observations.iter().take(40) {
            scratch.edge_set.clear();
            scratch.edge_set.extend_from_slice(obs.edge_set.samples());
            let verdict = backend.classify_into(&mut scratch, obs.sa);
            let score = backend.calibrated_score(obs.sa, &verdict);
            match verdict {
                Verdict::Ok { .. } => {
                    let s = score.expect("accepted frames must score");
                    assert!(
                        (0.0..0.5).contains(&s),
                        "accepted frame must land below the boundary: {s}"
                    );
                }
                Verdict::Anomaly { .. } => {
                    if let Some(s) = score {
                        assert!(s >= 0.5, "alarms must land at or above the boundary: {s}");
                    }
                }
            }
        }
    }
}
