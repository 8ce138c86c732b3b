//! Per-layer probes of the traced run: the benchmark times its own calls
//! into each layer's public functions, on the working state the last
//! round left behind.

use crate::stats::{median, quantile, timed, TelCapture};
use crate::workloads::{self, Fixture, Workload};
use crate::{put, scratch_dir, Metrics};
use healthmon::{ActiveBackend, Detector, FleetSupervisor, LifetimeRuntime};
use healthmon_faults::FaultModel;
use healthmon_nn::{InferenceBackend, Network, SoftmaxCrossEntropy};
use healthmon_telemetry as tel;
use healthmon_tensor::{SeededRng, Tensor};
use std::hint::black_box;

/// Median host seconds of `reps` calls of `f`.
fn median_s<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).1).collect();
    median(&samples)
}

/// Runs the probes of `workload`. Returns false if a probe found a wrong
/// output (a single-device checkpoint that does not resume bit-identically).
pub fn run(workload: Workload, fixture: &Fixture, metrics: &mut Metrics) -> bool {
    gemm(metrics);
    match fixture {
        Fixture::Fleet {
            golden,
            patterns,
            config,
            ..
        } => {
            // Single devices of the fleet, stepped one at a time.
            let mut runtimes: Vec<LifetimeRuntime> = (0..4)
                .map(|id| {
                    LifetimeRuntime::new(golden, patterns.clone(), config.device_config(id), None)
                })
                .collect();
            let mut steps = Vec::new();
            for rt in &mut runtimes {
                while !rt.is_finished() {
                    steps.push(timed(|| rt.step()).1);
                }
            }
            put(
                metrics,
                "runtime.step_ms_p50",
                1e3 * quantile(&steps, 0.5),
                "ms",
            );
            put(
                metrics,
                "runtime.step_ms_p99",
                1e3 * quantile(&steps, 0.99),
                "ms",
            );
            let images = patterns.images();
            put(
                metrics,
                "nn.infer_us.mlp",
                1e6 * median_s(50, || golden.infer(images)),
                "us",
            );
            let detector = Detector::new(golden, patterns.clone());
            let mut rng = SeededRng::new(config.seed).fork(30);
            let backend = config.device.backend.instantiate(golden, &mut rng);
            let checkup = median_s(50, || detector.confidence_distance(&backend));
            put(metrics, "detect.checkup_us_p50", 1e6 * checkup, "us");
            if workload == Workload::FleetSteady {
                let aging = config.device.aging;
                let drift = FaultModel::Drift {
                    nu: aging.drift_nu,
                    time: aging.drift_time,
                };
                put(
                    metrics,
                    "faults.apply_us.drift",
                    1e6 * apply_s(golden, &drift),
                    "us",
                );
                return store(golden, patterns, config, &runtimes, metrics);
            }
            // fleet-aging: the analog crossbar under its aging writes.
            let spec = config.device.backend;
            let program = median_s(5, || spec.instantiate(golden, &mut rng));
            put(metrics, "reram.program_ms.analog", 1e3 * program, "ms");
            let infer = median_s(30, || backend.infer(images));
            put(metrics, "reram.infer_us.analog", 1e6 * infer, "us");
            let ns_per_mac = 1e9 * infer / macs_of(golden, images);
            put(metrics, "reram.host_ns_per_mac", ns_per_mac, "ns");
            let ActiveBackend::Analog(mut analog) = backend else {
                unreachable!("fleet-aging is analog")
            };
            let aging = config.device.aging;
            let drift_s = median_s(30, || {
                analog.drift(aging.drift_nu, aging.drift_time, &mut rng);
            });
            put(metrics, "reram.drift_us", 1e6 * drift_s, "us");
        }
        Fixture::Campaign { models } => {
            let pv = FaultModel::ProgrammingVariation {
                sigma: workloads::PV_SIGMA,
            };
            let mut pv_s = 0.0;
            for case in models {
                let images = case.detector.patterns().images();
                let infer = median_s(20, || case.net.infer(images));
                put(
                    metrics,
                    &format!("nn.infer_us.{}", case.name),
                    1e6 * infer,
                    "us",
                );
                pv_s += apply_s(&case.net, &pv);
            }
            put(metrics, "faults.apply_us.pv", 1e6 * pv_s, "us");
            for (label, spec) in workloads::backends().into_iter().skip(1) {
                let mut program_s = 0.0;
                let mut infer_s = 0.0;
                let mut macs = 0.0;
                for case in models {
                    let images = case.detector.patterns().images();
                    let mut rng = SeededRng::new(7);
                    program_s += median_s(3, || spec.instantiate(&case.net, &mut rng));
                    let backend = spec.instantiate(&case.net, &mut rng);
                    infer_s += median_s(10, || backend.infer(images));
                    macs += macs_of(&case.net, images);
                }
                put(
                    metrics,
                    &format!("reram.program_ms.{label}"),
                    1e3 * program_s,
                    "ms",
                );
                put(
                    metrics,
                    &format!("reram.infer_us.{label}"),
                    1e6 * infer_s,
                    "us",
                );
                if label == "analog" {
                    put(metrics, "reram.host_ns_per_mac", 1e9 * infer_s / macs, "ns");
                }
            }
            let mlp = models
                .iter()
                .find(|c| c.name == "mlp")
                .expect("the campaign runs the mlp");
            cost_ratio(mlp, metrics);
        }
        Fixture::Testgen { net, pool } => {
            let batch = pool.subset(&(0..workloads::TESTGEN_COUNT).collect::<Vec<_>>());
            let mut train = net.clone();
            let fb = median_s(20, || {
                let logits = train.forward(&batch.images);
                let loss = SoftmaxCrossEntropy::with_labels(&logits, &batch.labels);
                train.zero_grads();
                black_box(train.backward(&loss.grad));
            });
            put(metrics, "nn.forward_backward_ms", 1e3 * fb, "ms");
            put(
                metrics,
                "nn.infer_us.lenet5",
                1e6 * median_s(20, || net.infer(&batch.images)),
                "us",
            );
        }
    }
    true
}

/// Median host seconds of applying `fault` to a fresh copy of `net`.
fn apply_s(net: &Network, fault: &FaultModel) -> f64 {
    let samples: Vec<f64> = (0..20u64)
        .map(|i| {
            let mut copy = net.clone();
            timed(|| fault.apply(&mut copy, &mut SeededRng::new(i))).1
        })
        .collect();
    median(&samples)
}

/// Multiply-accumulates of one digital pass, counted by the GEMM layer.
fn macs_of(net: &Network, images: &Tensor) -> f64 {
    let was = tel::enabled();
    tel::set_enabled(true);
    let before = TelCapture::now();
    black_box(net.infer(images));
    let flops = TelCapture::now().since(&before).counter("gemm.flops");
    tel::set_enabled(was);
    flops / 2.0
}

/// The paper's cost claim: one checkup against a 10K-input accuracy pass
/// through the same backend, on the zoo mlp.
fn cost_ratio(case: &workloads::ZooCase, metrics: &mut Metrics) {
    const ACCURACY_INPUTS: usize = 10_000;
    const BATCH: usize = 500;
    let mut shape = vec![BATCH];
    shape.extend_from_slice(case.net.input_shape());
    let batch = Tensor::randn(&shape, &mut SeededRng::new(11));
    for (label, spec) in workloads::backends() {
        let backend = spec.instantiate(&case.net, &mut SeededRng::new(12));
        let checkup = median_s(20, || case.detector.confidence_distance(&backend));
        if label == "digital" {
            put(metrics, "detect.checkup_us_p50", 1e6 * checkup, "us");
        }
        let accuracy = timed(|| {
            for _ in 0..ACCURACY_INPUTS / BATCH {
                black_box(backend.infer(&batch));
            }
        })
        .1;
        put(
            metrics,
            &format!("detect.checkup_cost_ratio.{label}"),
            checkup / accuracy,
            "ratio",
        );
    }
}

/// GEMM throughput at the zoo's shapes: (m, k, n) of the im2col products
/// of lenet5 and convnet7 conv layers and the mlp's first dense layer at
/// the checkup batch.
fn gemm(metrics: &mut Metrics) {
    const SHAPES: [(usize, usize, usize); 5] = [
        (6, 25, 784),
        (16, 150, 100),
        (16, 144, 1024),
        (32, 288, 256),
        (8, 784, 64),
    ];
    let mut rng = SeededRng::new(3);
    let (mut flops, mut secs) = (0.0, 0.0);
    for (m, k, n) in SHAPES {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        secs += median_s(50, || a.matmul(&b));
        flops += 2.0 * (m * k * n) as f64;
    }
    put(
        metrics,
        "tensor.gemm_gflops",
        flops / secs * 1e-9,
        "GFLOP/s",
    );
}

/// Checkpoint codec figures of single devices. Returns whether every
/// device resumed bit-identically.
fn store(
    golden: &Network,
    patterns: &healthmon::TestPatternSet,
    config: &healthmon::FleetConfig,
    runtimes: &[LifetimeRuntime],
    metrics: &mut Metrics,
) -> bool {
    let (mut bytes, mut encode, mut decode) = (0.0, Vec::new(), Vec::new());
    let mut identical = true;
    for (id, rt) in runtimes.iter().enumerate() {
        let (json, t) = timed(|| rt.checkpoint_json());
        encode.push(t);
        bytes += json.len() as f64;
        let (resumed, t) = timed(|| {
            LifetimeRuntime::resume(
                golden,
                patterns.clone(),
                config.device_config(id),
                None,
                &json,
            )
        });
        decode.push(t);
        if resumed.map(|r| r.checkpoint_json()).as_deref() != Ok(json.as_str()) {
            println!("MISMATCH: device {id} does not resume bit-identically");
            identical = false;
        }
    }
    put(
        metrics,
        "store.checkpoint_bytes_per_device",
        bytes / runtimes.len() as f64,
        "bytes",
    );
    put(
        metrics,
        "store.encode_ms_per_device",
        1e3 * median(&encode),
        "ms",
    );
    put(
        metrics,
        "store.decode_ms_per_device",
        1e3 * median(&decode),
        "ms",
    );
    identical
}

/// Checkpoints the whole fleet, resumes it and checks that the resumed
/// report matches. Returns whether it did; the traced run also reports
/// the save and resume times.
pub fn checkpoint_roundtrip(
    fixture: &Fixture,
    trace: bool,
    metrics: &mut Metrics,
) -> Result<bool, String> {
    let Fixture::Fleet {
        golden,
        patterns,
        config,
        fleet,
    } = fixture
    else {
        return Ok(true);
    };
    let dir = scratch_dir().join(format!("checkpoint-{}", std::process::id()));
    let (saved, save_s) = timed(|| fleet.save_checkpoint(&dir));
    saved.map_err(|e| format!("saving the fleet checkpoint: {e}"))?;
    let (resumed, resume_s) =
        timed(|| FleetSupervisor::resume(golden, patterns.clone(), *config, &dir));
    let resumed = resumed.map_err(|e| format!("resuming the fleet checkpoint: {e}"))?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    let same = resumed.render_report() == fleet.render_report();
    if !same {
        println!("MISMATCH: the resumed fleet's report differs");
    }
    if trace {
        put(metrics, "store.checkpoint_s", save_s, "s");
        put(metrics, "store.resume_s", resume_s, "s");
    }
    println!(
        "checkpoint: saved in {save_s:.3} s, resumed in {resume_s:.3} s, report {}",
        if same { "matches" } else { "differs" }
    );
    Ok(same)
}
