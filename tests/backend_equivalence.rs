//! Cross-backend equivalence and live-analog-state regression tests.
//!
//! The contract under test: an analog [`MappedNetwork`] configured with exact
//! cells (`cell_bits = 0`), ideal converters, zero write noise and no IR
//! drop computes **bit-identical** logits to the plain digital network —
//! on real paper-scale architectures, not just toy matrices. And the
//! other direction: faults injected into *live* crossbar state (stuck
//! cells, drift) must invalidate the cached differential conductances and
//! change what the concurrent-test detector observes.

use healthmon::{
    BackendKind, BackendSpec, CrossbarConfig, Detector, InferenceBackend, TestPatternSet,
};
use healthmon_nn::models::{convnet7, lenet5, tiny_mlp};
use healthmon_nn::zoo;
use healthmon_repair::{DefectMap, StuckCell};
use healthmon_reram::{CellFault, MappedNetwork};
use healthmon_tensor::{SeededRng, Tensor};

/// Exact-mode analog spec large enough for every paper-scale layer
/// (crossbars allocate the actual matrix shape, not the tile geometry).
fn exact_spec() -> BackendSpec {
    BackendSpec::analog(CrossbarConfig { rows: 4096, cols: 4096, ..CrossbarConfig::exact() })
}

fn assert_bitwise_eq(digital: &Tensor, analog: &Tensor, what: &str) {
    assert_eq!(digital.shape(), analog.shape(), "{what}: shape mismatch");
    for (i, (d, a)) in digital.as_slice().iter().zip(analog.as_slice()).enumerate() {
        assert_eq!(
            d.to_bits(),
            a.to_bits(),
            "{what}: logit {i} diverges (digital {d} vs analog {a})"
        );
    }
}

#[test]
fn exact_analog_is_bit_identical_to_digital_on_lenet5() {
    let mut rng = SeededRng::new(11);
    let net = lenet5(&mut rng);
    let images = Tensor::rand_uniform(&[4, 1, 28, 28], 0.0, 1.0, &mut rng);
    let backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
    assert_bitwise_eq(&net.infer(&images), &backend.infer(&images), "lenet5");
}

#[test]
fn exact_analog_is_bit_identical_to_digital_on_convnet7() {
    let mut rng = SeededRng::new(12);
    let net = convnet7(&mut rng);
    let images = Tensor::rand_uniform(&[3, 3, 32, 32], 0.0, 1.0, &mut rng);
    let backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
    assert_bitwise_eq(&net.infer(&images), &backend.infer(&images), "convnet7");
}

#[test]
fn exact_analog_readback_matches_digital_weights() {
    let mut rng = SeededRng::new(13);
    let net = lenet5(&mut rng);
    let backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
    let digital = net.state_dict();
    let readback = backend.readback().state_dict();
    for ((dk, dt), (rk, rt)) in digital.iter().zip(&readback) {
        assert_eq!(dk, rk);
        for (d, r) in dt.as_slice().iter().zip(rt.as_slice()) {
            // Exact mode programs -0.0 as +0.0; everything else is
            // bit-preserved.
            if *d == 0.0 && *r == 0.0 {
                continue;
            }
            assert_eq!(d.to_bits(), r.to_bits(), "`{dk}` diverges in read-back");
        }
    }
}

/// Regression for the PR 2 conductance cache: mutating *live* analog
/// state (stuck cells, drift) between detector evaluations must
/// invalidate the cached differential matrices, so the detector sees the
/// aged device — not a stale snapshot from before the fault.
#[test]
fn live_analog_faults_change_detection_responses() {
    let mut rng = SeededRng::new(21);
    let net = tiny_mlp(16, 32, 4, &mut rng);
    let patterns =
        TestPatternSet::new("t", Tensor::rand_uniform(&[8, 16], 0.0, 1.0, &mut rng));
    let detector = Detector::new(&net, patterns);

    let spec = BackendSpec::analog(CrossbarConfig::exact());
    let mut backend = MappedNetwork::program(&net, &spec, &mut rng);

    // Freshly programmed exact-mode backend: indistinguishable from the
    // golden network. This evaluation also populates the conductance
    // cache — the point of the test is that the mutations below evict it.
    let d0 = detector.confidence_distance(&backend);
    assert_eq!(d0.all_classes, 0.0, "exact analog baseline must match golden");

    backend.inject_stuck_cells(CellFault::StuckLow, 0.10, &mut rng);
    let d1 = detector.confidence_distance(&backend);
    let r1 = detector.responses(&backend);
    assert!(
        d1.all_classes > 0.0,
        "stuck cells on live conductances must move the detector (got {d1:?})"
    );

    backend.drift(0.5, 1.0, &mut rng);
    let d2 = detector.confidence_distance(&backend);
    let r2 = detector.responses(&backend);
    assert_ne!(r1, r2, "drift after stuck cells must change the responses again");
    assert!(d2.all_classes > 0.0, "drifted device must stay distinguishable (got {d2:?})");
}

/// The same live-fault visibility holds end-to-end through the monitor's
/// verdict, not just the raw distances.
#[test]
fn live_analog_faults_flip_the_verdict() {
    use healthmon::SdcCriterion;
    let mut rng = SeededRng::new(22);
    let net = tiny_mlp(16, 32, 4, &mut rng);
    let patterns =
        TestPatternSet::new("t", Tensor::rand_uniform(&[8, 16], 0.0, 1.0, &mut rng));
    let detector = Detector::new(&net, patterns);
    let spec = BackendSpec::analog(CrossbarConfig::exact());
    let mut backend = MappedNetwork::program(&net, &spec, &mut rng);
    let criterion = SdcCriterion::SdcA { threshold: 1e-4 };
    assert!(!detector.is_faulty(&backend, criterion), "fresh exact backend is healthy");
    backend.inject_stuck_cells(CellFault::StuckHigh, 0.25, &mut rng);
    assert!(detector.is_faulty(&backend, criterion), "injured backend must be flagged");
}

/// Probe batch in a zoo model's native input shape.
fn zoo_probes(spec: &zoo::ModelSpec, count: usize, rng: &mut SeededRng) -> Tensor {
    let mut shape = vec![count];
    shape.extend_from_slice(spec.input_shape);
    Tensor::rand_uniform(&shape, 0.0, 1.0, rng)
}

/// The exact-analog bit-identity contract is architecture-agnostic: every
/// registered zoo model — including the residual CNN, the deep MLP and
/// the attention block — must produce bitwise-digital logits on exact
/// crossbars. Adding a model to the registry adds it here automatically.
#[test]
fn exact_analog_is_bit_identical_to_digital_for_every_zoo_model() {
    for (i, spec) in zoo::ZOO.iter().enumerate() {
        let mut rng = SeededRng::new(31 + i as u64);
        let net = spec.build(&mut rng);
        let images = zoo_probes(spec, 3, &mut rng);
        let backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
        assert_bitwise_eq(&net.infer(&images), &backend.infer(&images), spec.name);
    }
}

/// Bit-sliced crossbars quantize each weight to a bounded-precision
/// magnitude before splitting it across cells, so bitwise equality with
/// the digital network is unattainable by construction. The contract is
/// instead: (a) programming is a pure function of (network, spec, seed) —
/// two same-seed programs are bitwise-identical to *each other* — and
/// (b) 16-bit sliced logits stay within a bounded relative envelope of
/// the digital reference, for every zoo architecture. The envelope is
/// loose (15%) because these are untrained random-init networks whose
/// logits nearly cancel, which inflates relative L1; it still catches
/// catastrophic divergence (wrong orientation, dropped slices, broken
/// recombination), which shows up as O(1) error.
#[test]
fn bitsliced_is_deterministic_and_bounded_for_every_zoo_model() {
    let spec16 = BackendSpec::bitsliced(
        CrossbarConfig { cell_bits: 4, dac_bits: 0, adc_bits: 0, ..CrossbarConfig::default() },
        16,
    );
    for (i, spec) in zoo::ZOO.iter().enumerate() {
        let mut rng = SeededRng::new(41 + i as u64);
        let net = spec.build(&mut rng);
        let images = zoo_probes(spec, 3, &mut rng);

        let a = MappedNetwork::program(&net, &spec16, &mut rng.fork(1)).infer(&images);
        let b = MappedNetwork::program(&net, &spec16, &mut rng.fork(1)).infer(&images);
        assert_bitwise_eq(&a, &b, &format!("{} (same-seed bitsliced reprogram)", spec.name));

        let digital = net.infer(&images);
        let rel = a.l1_distance(&digital) / digital.norm_l1().max(1e-6);
        assert!(rel < 0.15, "{}: 16-bit sliced logits diverge too much: {rel}", spec.name);
    }
}

/// Live stuck cells must flip the monitor's verdict on every zoo model:
/// the conductance cache is invalidated per-architecture, not just on the
/// MLPs the original regression used.
#[test]
fn stuck_cells_flip_the_verdict_for_every_zoo_model() {
    use healthmon::SdcCriterion;
    for (i, spec) in zoo::ZOO.iter().enumerate() {
        let mut rng = SeededRng::new(51 + i as u64);
        let net = spec.build(&mut rng);
        let patterns = TestPatternSet::new("zoo", zoo_probes(spec, 4, &mut rng));
        let detector = Detector::new(&net, patterns);
        let mut backend = MappedNetwork::program(&net, &exact_spec(), &mut rng);
        let criterion = SdcCriterion::SdcA { threshold: 1e-4 };
        assert!(
            !detector.is_faulty(&backend, criterion),
            "{}: fresh exact backend must be healthy",
            spec.name
        );
        backend.inject_stuck_cells(CellFault::StuckHigh, 0.25, &mut rng);
        assert!(
            detector.is_faulty(&backend, criterion),
            "{}: stuck cells must flip the verdict",
            spec.name
        );
    }
}

/// The device surface is one operation set on every backend: cells
/// pinned through `ActiveBackend::stick_cell` (logical coordinates under
/// a row assignment) read back exactly like the weight-space defect model
/// `DefectMap::apply_with_assignment` — bitwise on digital and on exact
/// analog crossbars, reproducibly per seed on bit-sliced ones — and a
/// layer written through `ActiveBackend::write_layer` becomes the
/// device's network image.
#[test]
fn device_surface_sticks_and_writes_on_every_backend() {
    let mut rng = SeededRng::new(61);
    let net = zoo::lookup("mlp").unwrap().build(&mut rng);
    let key = "layer0.weight";
    let golden = net.param(key).unwrap().clone();
    let (rows, cols) = (golden.shape()[0], golden.shape()[1]);
    let w_max = golden.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    // Logical row r lives on physical row r + 1 (wrapping).
    let assignment: Vec<usize> = (0..rows).map(|r| (r + 1) % rows).collect();
    let mut logical_of = vec![0; rows];
    for (logical, &physical) in assignment.iter().enumerate() {
        logical_of[physical] = logical;
    }
    let defects = DefectMap::new(vec![
        StuckCell { row: 0, col: 1, value: w_max },
        StuckCell { row: 5, col: 0, value: 0.0 },
        StuckCell { row: rows - 1, col: cols - 1, value: -w_max },
    ]);
    let expected = defects.apply_with_assignment(&golden, &assignment);
    let fresh = Tensor::rand_uniform(golden.shape(), -w_max, w_max, &mut rng);
    let specs = [
        BackendSpec::digital(),
        exact_spec(),
        BackendSpec::bitsliced(CrossbarConfig::default(), 8),
    ];
    for spec in specs {
        let label = spec.kind.label();
        let stuck_readback = |seed: u64| {
            let mut device = spec.instantiate(&net, &mut SeededRng::new(seed));
            for cell in defects.cells() {
                device.stick_cell(key, logical_of[cell.row], cell.col, cell.value);
            }
            device.readback().param(key).unwrap().clone()
        };
        let readback = stuck_readback(7);
        match spec.kind {
            BackendKind::Digital | BackendKind::Analog => {
                assert_bitwise_eq(&expected, &readback, &format!("{label} stuck read-back"));
            }
            BackendKind::BitSliced => assert_bitwise_eq(
                &readback,
                &stuck_readback(7),
                &format!("{label} same-seed stuck read-back"),
            ),
        }

        let mut device = spec.instantiate(&net, &mut SeededRng::new(8));
        device.write_layer(key, &fresh, &mut SeededRng::new(9));
        assert_eq!(device.network().param(key), Some(&fresh), "{label}: written weights");
    }
}
