//! Online-update poisoning: the §5.3 regression guard and the engine's
//! drift-guard quarantine (ISSUE 7 satellite).
//!
//! Three claims are pinned here:
//!
//! 1. **Bounded per-cycle movement** — updates that stay below the
//!    quarantine trip threshold cannot move any cluster mean by more than
//!    the analytic bound `n/(N+n) · max‖x−mean‖` per retrain cycle, so a
//!    stealthy attacker pays a hard per-cycle budget;
//! 2. **The drift guard catches the walk** — an aggressive mimicry walk
//!    ([`vprofile_vehicle::adversary::update_poisoning_capture`]) trips
//!    the engine's drift guard, which quarantines the absorbing SA and
//!    discards its pending updates;
//! 3. **Clean release** — once the attacker stops, releasing the SA
//!    restores normal absorption; the `QuarantineSet` holds no residue.

use vprofile::{EdgeSetExtractor, LabeledEdgeSet, Trainer, VProfileConfig};
use vprofile_detector_core::{DetectionBackend, VProfileBackend};
use vprofile_ids::{
    Backend, BreakerState, FusionConfig, FusionEngine, IdsEngine, IdsPipeline, PipelineConfig,
    UpdatePolicy,
};
use vprofile_vehicle::adversary::{update_poisoning_capture, AdversaryPlan};
use vprofile_vehicle::{Capture, CaptureConfig, Vehicle};

/// `VProfileBackend` applies buffered updates every 16 absorptions; one
/// applied batch is one "retrain cycle" for the per-cycle bound.
const UPDATE_BATCH: usize = 16;

fn trained_setup(frames: usize) -> (Vehicle, Capture, VProfileBackend, Vec<LabeledEdgeSet>) {
    let vehicle = Vehicle::vehicle_a(23);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(frames).with_seed(23))
        .expect("capture");
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let labeled = extracted.labeled();
    let model = Trainer::new(config)
        .train_with_lut(&labeled, &vehicle.sa_lut())
        .expect("training");
    (vehicle, capture, VProfileBackend::new(model, 2.0), labeled)
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Satellite claim 1: one applied update batch of `n` observations moves a
/// cluster mean by at most `n/(N+n) · max‖x − mean‖` — the exact algebra
/// of the §5.3 running mean, so any poisoning sequence that keeps its
/// frames inside the accept region also keeps its per-cycle model
/// movement inside an ε that shrinks as the cluster grows.
#[test]
fn sub_threshold_poisoning_moves_means_by_bounded_epsilon_per_cycle() {
    let (_, _, mut backend, labeled) = trained_setup(700);
    let sa = labeled[0].sa;
    let cluster_id = backend.model().lookup_sa(sa).expect("trained SA");

    let donors: Vec<&LabeledEdgeSet> = labeled
        .iter()
        .filter(|o| o.sa == sa)
        .take(UPDATE_BATCH)
        .collect();
    assert_eq!(donors.len(), UPDATE_BATCH, "setup: need a full batch");

    let cluster = backend.model().cluster(cluster_id);
    let n_before = cluster.count();
    let mean_before = cluster.mean().to_vec();
    // The attacker's worst single-frame deviation that still passed
    // detection — here the donors are genuinely accepted traffic, the
    // stealthiest possible poisoning steps.
    let max_dev = donors
        .iter()
        .map(|o| euclid(o.edge_set.samples(), &mean_before))
        .fold(0.0f64, f64::max);
    assert!(max_dev > 0.0);

    for obs in &donors {
        backend.absorb(sa, obs.edge_set.samples());
    }
    // 16 absorptions auto-apply exactly one batch.
    let mean_after = backend.model().cluster(cluster_id).mean().to_vec();
    let moved = euclid(&mean_before, &mean_after);
    let epsilon = UPDATE_BATCH as f64 / (n_before + UPDATE_BATCH) as f64 * max_dev;
    assert!(
        moved <= epsilon * (1.0 + 1e-9) + 1e-9,
        "one cycle moved the mean {moved}, past the analytic bound {epsilon}"
    );
    // The drift measure agrees with the direct per-cluster computation.
    assert!(backend.update_drift() >= moved * (1.0 - 1e-9));
}

/// The calibrated drift-guard threshold: clean replay of a fresh session
/// accumulates a measured maximum drift of ~200 (environmental wander at
/// this fleet's noise level), while the successful poisoning walk below
/// reaches ~1250. 400 sits between with a 2× margin on both sides.
const DRIFT_THRESHOLD: f64 = 400.0;

/// Satellite claim 1, engine flavor: with the guard armed above the
/// clean-traffic wander level, a whole fresh session absorbs without
/// tripping it.
#[test]
fn guard_never_trips_on_clean_traffic() {
    let (vehicle, _, backend, _) = trained_setup(700);
    let model = backend.model().clone();
    // A *different* session than the training one: honest drift included.
    let fresh = vehicle
        .capture(&CaptureConfig::default().with_frames(700).with_seed(99))
        .expect("capture");
    let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX))
        .with_drift_guard(DRIFT_THRESHOLD);
    assert_eq!(engine.drift_guard(), Some(DRIFT_THRESHOLD));
    for (i, frame) in fresh.frames().iter().enumerate() {
        let _ = engine.process_window(i as u64, &frame.trace.to_f64());
    }
    engine.apply_pending_updates();
    assert!(
        engine.quarantined().is_empty(),
        "clean absorption must not quarantine anyone"
    );
}

/// Satellite claim 2 + 3: the full poisoning walk trips the guard, the
/// walk's SA lands in quarantine, absorption for it stops, and release
/// restores clean behaviour.
#[test]
fn poisoning_walk_is_quarantined_and_releases_cleanly() {
    let (vehicle, capture, backend, _) = trained_setup(700);
    let model = backend.model().clone();

    // The victim is ECU 0; the poison stream transmits under its first SA.
    // A slow walk (600 frames to a 0.3 blend) stays inside the accept
    // region the whole way — replayed against an unguarded engine, every
    // frame is accepted and the model ends ~1250 from its baseline. The
    // guard is the only thing that catches it.
    let victim_sa = vehicle.ecus()[0].schedules[0].sa;
    let plan = AdversaryPlan::new(0, 0.3, 77);
    let poison = update_poisoning_capture(&vehicle, &plan, 600).expect("poison capture");

    let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX))
        .with_drift_guard(DRIFT_THRESHOLD);

    let mut anomalies = 0usize;
    for (i, frame) in poison.frames().iter().enumerate() {
        let event = engine.process_window(i as u64, &frame.trace.to_f64());
        if event.is_anomaly() {
            anomalies += 1;
        }
    }
    assert!(
        anomalies < poison.len() / 4,
        "the slow walk should largely evade per-frame detection, \
         yet {anomalies} of {} frames alarmed",
        poison.len()
    );
    assert!(
        engine.quarantined().contains(victim_sa.raw()),
        "the poisoned SA must be quarantined (drift guard tripped); \
         {anomalies} of {} frames alarmed instead",
        poison.len()
    );

    // Quarantined: further accepted frames of that SA are not absorbed.
    let counts = |engine: &IdsEngine| -> usize {
        engine
            .model()
            .expect("vprofile backend")
            .clusters()
            .iter()
            .map(|c| c.count())
            .sum()
    };
    engine.apply_pending_updates();
    let frozen = counts(&engine);
    for (i, frame) in capture.frames().iter().take(60).enumerate() {
        let sa = frame.frame.j1939_id().source_address;
        if sa == victim_sa {
            let _ = engine.process_window(1_000 + i as u64, &frame.trace.to_f64());
        }
    }
    engine.apply_pending_updates();
    assert_eq!(
        counts(&engine),
        frozen,
        "a quarantined SA must not grow the model"
    );

    // The attacker stops; the operator reinstalls a trusted model and
    // releases the SA. Absorption resumes and the quarantine set is empty.
    let trusted = engine.model().expect("vprofile backend").clone();
    engine.install_model(trusted);
    assert!(
        engine.quarantined().is_empty(),
        "install_model must clear the quarantine set"
    );
    let released = counts(&engine);
    for (i, frame) in capture.frames().iter().take(120).enumerate() {
        let _ = engine.process_window(2_000 + i as u64, &frame.trace.to_f64());
    }
    engine.apply_pending_updates();
    assert!(
        counts(&engine) > released,
        "clean absorption must resume after release"
    );
    assert!(engine.quarantined().is_empty(), "no quarantine residue");
}

/// The drift guard trips the same way inside the sharded pipeline, with
/// the circuit breaker closed throughout, and the per-shard
/// `quarantined_sas` gauge reports it: the gauge follows every quarantine
/// change, not only breaker transitions.
#[test]
fn pipeline_gauge_reports_drift_guard_quarantines() {
    let (vehicle, _, backend, _) = trained_setup(700);
    let victim_sa = vehicle.ecus()[0].schedules[0].sa;
    let plan = AdversaryPlan::new(0, 0.3, 77);
    let poison = update_poisoning_capture(&vehicle, &plan, 600).expect("poison capture");
    let engine = IdsEngine::new(
        backend.model().clone(),
        2.0,
        UpdatePolicy::every(1, usize::MAX),
    )
    .with_drift_guard(DRIFT_THRESHOLD);

    let mut pipeline =
        IdsPipeline::spawn_sharded(engine, PipelineConfig::default().with_workers(2));
    let stream: Vec<f64> = poison
        .frames()
        .iter()
        .flat_map(|frame| frame.trace.to_f64())
        .collect();
    for chunk in stream.chunks(8_192) {
        pipeline.feed(chunk.to_vec()).expect("feed");
    }
    pipeline.close_input();
    let (engines, stats) = pipeline.close().expect("clean close");

    assert_eq!(stats.degraded, 0, "the breaker never trips: {stats:?}");
    assert!(stats.breaker.iter().all(|&b| b == BreakerState::Closed));
    assert!(
        engines
            .iter()
            .any(|engine| engine.quarantined().contains(victim_sa.raw())),
        "the drift guard must quarantine the poisoned SA inside the pipeline"
    );
    let gauge: usize = stats.quarantined_sas.iter().sum();
    let held: usize = engines
        .iter()
        .map(|engine| engine.quarantined().len())
        .sum();
    assert!(
        gauge > 0,
        "the gauge must report the drift-guard quarantine"
    );
    assert_eq!(gauge, held, "gauge and closed engines agree");
}

/// Builds the ensemble counterpart of the single-backend setup: vProfile
/// primary plus Viden- and Scission-style secondaries, all trained on the
/// same clean session, with online updates enabled.
fn fusion_setup(vehicle: &Vehicle, capture: &Capture) -> FusionEngine {
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();
    let model = Trainer::new(config.clone())
        .train_with_lut(&labeled, &lut)
        .expect("training");
    let voters = vec![
        Backend::vprofile(model, 2.0),
        Backend::from(vprofile_baselines::VidenDetector::fit(&labeled, &lut, 6.0).expect("viden")),
        Backend::from(
            vprofile_baselines::ScissionDetector::fit(&labeled, &lut, 0.5).expect("scission"),
        ),
    ];
    FusionEngine::new(
        voters,
        config,
        FusionConfig::default(),
        UpdatePolicy::every(1, usize::MAX),
    )
}

/// Sum of the primary (vProfile) voter's cluster counts — the observable
/// that grows iff absorption reached the model.
fn primary_counts(engine: &FusionEngine) -> usize {
    engine.voters()[0]
        .as_vprofile()
        .expect("voter 0 is the vProfile primary")
        .model()
        .clusters()
        .iter()
        .map(|c| c.count())
        .sum()
}

/// ISSUE 8: absorption in the fusion engine is *drift-gated* — there is
/// no cadence to exploit. A stationary clean replay opens no change-point
/// budget, so even with updates enabled on every frame the model must not
/// move at all.
#[test]
fn fusion_does_not_absorb_stationary_traffic() {
    let (vehicle, capture, _, _) = trained_setup(700);
    let mut engine = fusion_setup(&vehicle, &capture);
    let before = primary_counts(&engine);
    for (i, frame) in capture.frames().iter().enumerate() {
        let _ = engine.process_window(i as u64, &frame.trace.to_f64());
    }
    engine.apply_pending_updates();
    assert_eq!(
        primary_counts(&engine),
        before,
        "no ScoreShift verdict, no absorption: the drift gate stays shut"
    );
    assert!(engine.quarantined().is_empty());
}

/// ISSUE 8: the mimicry walk that defeats per-frame detection cannot buy
/// model movement from the fusion engine. Either its frames split the
/// ensemble (disagreement voids the absorption budget), or enough drift
/// accumulates to trip the poisoning guard and quarantine the SA —
/// both ways the primary model ends essentially where it started.
#[test]
fn fusion_starves_or_quarantines_the_poisoning_walk() {
    let (vehicle, _, backend, _) = trained_setup(700);
    let baseline = backend.model().clone();
    let victim_sa = vehicle.ecus()[0].schedules[0].sa;
    let plan = AdversaryPlan::new(0, 0.3, 77);
    let poison = update_poisoning_capture(&vehicle, &plan, 600).expect("poison capture");

    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(700).with_seed(23))
        .expect("capture");
    let mut engine = fusion_setup(&vehicle, &capture).with_drift_guard(DRIFT_THRESHOLD);
    let before = primary_counts(&engine);

    for (i, frame) in poison.frames().iter().enumerate() {
        let _ = engine.process_window(i as u64, &frame.trace.to_f64());
    }
    engine.apply_pending_updates();
    let absorbed = primary_counts(&engine) - before;
    let quarantined = engine.quarantined().contains(victim_sa.raw());
    assert!(
        absorbed == 0 || quarantined,
        "the walk bought {absorbed} absorbed frames without tripping quarantine"
    );

    // Whatever leaked through before the gate shut, the model must end
    // close to its baseline — far under the unguarded walk's ~1250 drift.
    let victim_cluster = baseline.lookup_sa(victim_sa).expect("trained SA");
    let mean_before = baseline.cluster(victim_cluster).mean().to_vec();
    let model_after = engine.voters()[0]
        .as_vprofile()
        .expect("vprofile primary")
        .model();
    let mean_after = model_after.cluster(victim_cluster).mean().to_vec();
    let moved = euclid(&mean_before, &mean_after);
    assert!(
        moved < DRIFT_THRESHOLD,
        "fusion must hold the poisoned mean near baseline, moved {moved}"
    );
}

/// The guard is an engine feature: per-SA release alone (attacker still
/// active) re-trips as soon as the walk continues.
#[test]
fn release_without_reinstall_retrips_under_continued_poisoning() {
    let (vehicle, _, backend, _) = trained_setup(700);
    let model = backend.model().clone();
    let victim_sa = vehicle.ecus()[0].schedules[0].sa;
    let plan = AdversaryPlan::new(0, 0.3, 78);
    let poison = update_poisoning_capture(&vehicle, &plan, 600).expect("poison capture");

    let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX))
        .with_drift_guard(DRIFT_THRESHOLD);
    let mut released_once = false;
    for (i, frame) in poison.frames().iter().enumerate() {
        let _ = engine.process_window(i as u64, &frame.trace.to_f64());
        if !released_once && engine.quarantined().contains(victim_sa.raw()) {
            // Operator releases while the walk is still running — the
            // accumulated drift is still past the threshold, so the next
            // absorbed frame re-quarantines.
            engine.release_sa(victim_sa.raw());
            released_once = true;
        }
    }
    assert!(released_once, "guard never tripped during the walk");
    assert!(
        engine.quarantined().contains(victim_sa.raw()),
        "continued poisoning after release must re-trip the guard"
    );
}
