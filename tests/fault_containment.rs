//! Fault-containment integration: a poisoned accelerator must never take
//! the monitor down with it — or, worse, read as healthy — an
//! interrupted detection campaign must resume bit-identically, and no
//! damaged on-disk artifact is ever accepted.

use healthmon::{
    CampaignCheckpoint, Detector, FleetConfig, FleetSupervisor, FlightRecord, HealthMonitor,
    HealthState, HealthmonError, LifetimeConfig, LifetimeRuntime, MonitorPolicy, SdcCriterion,
    TestPatternSet,
};
use healthmon_check::Gen;
use healthmon_faults::FaultModel;
use healthmon_nn::models::tiny_mlp;
use healthmon_nn::Network;
use healthmon_telemetry as tel;
use healthmon_tensor::{SeededRng, Tensor};
use std::str::FromStr;

fn fixture() -> (Network, Detector) {
    let mut rng = SeededRng::new(1);
    let net = tiny_mlp(8, 16, 4, &mut rng);
    let patterns = TestPatternSet::new("t", Tensor::rand_uniform(&[10, 8], 0.0, 1.0, &mut rng));
    let detector = Detector::new(&net, patterns);
    (net, detector)
}

/// Overwrites one weight of the named layer with `value`.
fn poison_weight(net: &mut Network, key_fragment: &str, value: f32) {
    let mut hit = false;
    net.for_each_param_mut(|key, tensor| {
        if key.contains(key_fragment) && !hit {
            tensor.as_mut_slice()[0] = value;
            hit = true;
        }
    });
    assert!(hit, "no parameter matching `{key_fragment}`");
}

/// Regression for the NaN-poisoning bug: `NaN >= threshold` is false for
/// every threshold, so before the non-finite guard a dead device scored
/// `Healthy`. It must escalate straight to `Critical`.
#[test]
fn nan_logits_drive_the_monitor_to_critical() {
    let (net, detector) = fixture();
    let mut monitor = HealthMonitor::new(detector, MonitorPolicy::default());
    let mut device = net.clone();
    poison_weight(&mut device, "layer2.bias", f32::NAN);

    let checkup = monitor.check(&device);
    assert!(checkup.distance.is_poisoned(), "distance {:?}", checkup.distance);
    assert_eq!(checkup.state, HealthState::Critical);
    assert_eq!(monitor.state(), HealthState::Critical);
}

/// Infinities poison the softmax just like NaN and must escalate too.
#[test]
fn infinite_weights_also_escalate() {
    let (net, detector) = fixture();
    let mut monitor = HealthMonitor::new(detector, MonitorPolicy::default());
    let mut device = net.clone();
    poison_weight(&mut device, "layer2.bias", f32::INFINITY);
    assert_eq!(monitor.check(&device).state, HealthState::Critical);
}

/// Hysteresis smooths one-off noise, but a non-finite reading is
/// unambiguous device death and bypasses it: the very first poisoned
/// checkup reads `Critical`, even under a strict escalation count.
#[test]
fn poisoned_readings_bypass_hysteresis() {
    let (net, detector) = fixture();
    let policy = MonitorPolicy { escalation_count: 3, ..MonitorPolicy::default() };
    let mut monitor = HealthMonitor::new(detector, policy);
    let mut device = net.clone();
    poison_weight(&mut device, "layer2.bias", f32::NAN);
    assert_eq!(monitor.check(&device).state, HealthState::Critical);
    // A subsequently repaired device still de-escalates immediately.
    let repaired = net.clone();
    assert_eq!(monitor.check(&repaired).state, HealthState::Healthy);
}

/// `forward_checked` localizes the first poisoned layer instead of
/// letting NaN propagate silently to the output.
#[test]
fn forward_checked_localizes_the_poisoned_layer() {
    let (net, _) = fixture();
    let mut device = net.clone();
    poison_weight(&mut device, "layer2.bias", f32::NAN);
    let x = Tensor::ones(&[1, 8]);
    let err = device.forward_checked(&x).unwrap_err();
    assert_eq!(err.layer, 2);
    let wrapped: HealthmonError = err.into();
    assert!(wrapped.to_string().contains("layer 2"));
}

/// The acceptance scenario: a 100-model campaign interrupted mid-sweep —
/// with the checkpoint serialized to JSON and reloaded, as a killed and
/// restarted process would do — finishes with rates bit-identical to an
/// uninterrupted run.
#[test]
fn interrupted_100_model_campaign_resumes_bit_identically() {
    let (net, detector) = fixture();
    let fault = FaultModel::ProgrammingVariation { sigma: 0.25 };
    let criteria =
        [SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }, SdcCriterion::SdcT {
            threshold: 0.05,
        }];
    let seed = 42u64;
    let count = 100usize;

    let one_shot = detector.detection_rates(&net, &fault, count, seed, &criteria);

    // Uninterrupted resumable run — the reference checkpoint.
    let mut reference = CampaignCheckpoint::new(seed, count, &criteria);
    let reference_rates = detector
        .detection_rates_resumable(&net, &fault, &criteria, &mut reference, None)
        .unwrap()
        .unwrap();

    // Interrupted run: stop after 37 models, "crash", reload from JSON,
    // finish.
    let mut cp = CampaignCheckpoint::new(seed, count, &criteria);
    let partial = detector
        .detection_rates_resumable(&net, &fault, &criteria, &mut cp, Some(37))
        .unwrap();
    assert!(partial.is_none(), "37/100 models must not complete the sweep");
    assert_eq!(cp.completed(), 37);

    let saved = cp.to_json_string();
    let mut resumed = CampaignCheckpoint::from_json_str(&saved).unwrap();
    assert_eq!(resumed.completed(), 37);
    let resumed_rates = detector
        .detection_rates_resumable(&net, &fault, &criteria, &mut resumed, None)
        .unwrap()
        .unwrap();

    // Bit-identical: same rates and the same per-model verdict rows.
    assert_eq!(
        resumed_rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        one_shot.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(resumed_rates, reference_rates);
    assert_eq!(resumed, reference);
    assert_eq!(resumed.to_json_string(), reference.to_json_string());
}

/// A checkpoint from a different criteria set is rejected up front, not
/// silently merged.
#[test]
fn resume_with_wrong_criteria_is_rejected() {
    let (net, detector) = fixture();
    let fault = FaultModel::ProgrammingVariation { sigma: 0.25 };
    let mut cp = CampaignCheckpoint::new(3, 10, &[SdcCriterion::Sdc1]);
    let err = detector
        .detection_rates_resumable(
            &net,
            &fault,
            &[SdcCriterion::SdcA { threshold: 0.03 }],
            &mut cp,
            None,
        )
        .unwrap_err();
    assert!(matches!(err, HealthmonError::CheckpointMismatch(_)));
    // The checkpoint itself is untouched by the failed resume.
    assert_eq!(cp.completed(), 0);
}

/// Feeds every truncation and every single-bit flip of `artifact` to
/// `damaged`, with a description of the damage. Artifacts over 4 KiB are
/// swept at a seeded sample of 512 byte positions. Variants that are no
/// longer UTF-8 are skipped: reading them as text already fails.
fn for_each_damage(artifact: &str, mut damaged: impl FnMut(&str, String)) {
    let bytes = artifact.as_bytes();
    let positions: Vec<usize> = if bytes.len() <= 4096 {
        (0..bytes.len()).collect()
    } else {
        let mut g = Gen::for_case(bytes.len());
        (0..512).map(|_| g.usize_in(0, bytes.len())).collect()
    };
    let mut variant = bytes.to_vec();
    for at in positions {
        let torn = std::str::from_utf8(&bytes[..at]).expect("artifacts are ASCII");
        damaged(torn, format!("truncation to {at} of {} bytes", bytes.len()));
        for bit in 0..8 {
            variant[at] ^= 1 << bit;
            if let Ok(text) = std::str::from_utf8(&variant) {
                damaged(text, format!("flipping bit {bit} of byte {at}"));
            }
            variant[at] = bytes[at];
        }
    }
}

/// Requires `accepts` to take the intact `artifact` and to reject every
/// damaged variant of it.
fn sweep(artifact: &str, accepts: impl Fn(&str) -> bool) {
    assert!(accepts(artifact), "the intact artifact must be accepted");
    for_each_damage(artifact, |text, what| assert!(!accepts(text), "{what} was accepted"));
}

fn lifetime_fixture() -> (Network, TestPatternSet, LifetimeConfig) {
    let mut rng = SeededRng::new(4);
    let net = tiny_mlp(8, 16, 4, &mut rng);
    let patterns = TestPatternSet::new("t", Tensor::rand_uniform(&[6, 8], 0.0, 1.0, &mut rng));
    (net, patterns, LifetimeConfig { epochs: 3, ..LifetimeConfig::default() })
}

#[test]
fn damaged_campaign_checkpoints_are_rejected() {
    let mut cp = CampaignCheckpoint::new(5, 3, &[SdcCriterion::Sdc1]);
    cp.record(1, vec![true]).unwrap();
    sweep(&cp.to_json_string(), |text| CampaignCheckpoint::from_json_str(text).is_ok());
}

#[test]
fn damaged_flight_records_are_rejected() {
    let mut record = FlightRecord::new(3, 2, "park", "repair budget exhausted", 77);
    record.push_tally("offenses", 1);
    sweep(&record.render(), |text| FlightRecord::from_str(text).is_ok());
}

#[test]
fn damaged_lifetime_checkpoints_are_rejected() {
    let (net, patterns, config) = lifetime_fixture();
    let mut runtime = LifetimeRuntime::new(&net, patterns.clone(), config, None);
    runtime.run(Some(1));
    sweep(&runtime.checkpoint_json(), |text| {
        LifetimeRuntime::resume(&net, patterns.clone(), config, None, text).is_ok()
    });
}

#[test]
fn damaged_fleet_shards_are_rejected() {
    let (net, patterns, device) = lifetime_fixture();
    let config = FleetConfig { seed: 8, devices: 1, shards: 1, device, ..FleetConfig::default() };
    let dir = std::env::temp_dir().join("healthmon_containment_shard_sweep");
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
    fleet.run(Some(1));
    fleet.save_checkpoint(&dir).unwrap();
    let path = dir.join("shard-000.json");
    let shard = std::fs::read_to_string(&path).unwrap();
    sweep(&shard, |text| {
        std::fs::write(&path, text).unwrap();
        let resumed = FleetSupervisor::resume(&net, patterns.clone(), config, &dir).unwrap();
        resumed.damaged_shards().is_empty()
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// A metrics stream is not sealed: a damaged one may still parse, as
/// another stream. It must never panic the reader behind `healthmon
/// metrics` and `healthmon top`, nor yield a histogram bucket outside
/// the 65 log2 buckets.
#[test]
fn damaged_metrics_streams_never_panic_the_reader() {
    let frame = |seq: u64| tel::SnapshotFrame {
        seq,
        label: "fleet".into(),
        epoch: seq,
        meta: vec![("devices".into(), 4.0), ("healthy".into(), 3.0)],
        snap: tel::MetricsSnapshot {
            counters: vec![tel::CounterSnapshot { name: "c.hits".into(), value: 42, stable: true }],
            gauges: vec![tel::GaugeSnapshot { name: "g.level".into(), value: 0.5, stable: false }],
            histograms: vec![tel::HistogramSnapshot {
                name: "h.ns".into(),
                count: 6,
                sum: 1 << 40,
                buckets: vec![(0, 2), (7, 3), (64, 1)],
                stable: false,
            }],
            spans: vec![tel::SpanSnapshot {
                path: "epoch/checkup".into(),
                calls: 3,
                total_ns: 900,
                self_ns: 700,
                max_ns: 400,
            }],
            events: vec![tel::EventSnapshot {
                seq: 1,
                t_ns: 5,
                name: "fleet.incident",
                detail: "device 2".into(),
            }],
        },
    };
    let stream = tel::render_frame(&frame(1)) + &tel::render_frame(&frame(2));
    assert_eq!(tel::parse_stream(&stream).unwrap().len(), 2);
    for_each_damage(&stream, |text, what| {
        if let Ok(frames) = tel::parse_stream(text) {
            for h in frames.iter().flat_map(|f| &f.snap.histograms) {
                assert!(h.buckets.iter().all(|&(i, _)| i <= 64), "{what}: bucket index > 64");
                h.quantile(0.5);
            }
        }
    });
}
