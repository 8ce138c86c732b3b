//! The model zoo: every registered architecture through the same health
//! pipeline, no per-model code.
//!
//! Iterates the registry (`healthmon_nn::zoo`), builds each model from a
//! seed, deploys it onto exact (quantization-free, noise-free) crossbars,
//! and verifies the analog backend reproduces the digital logits
//! bit-for-bit before running a 10-pattern concurrent test against a
//! programming-variation device. This is the architecture-agnostic loop
//! the CLI subcommands use; adding a model to the registry adds a row
//! here with zero changes.
//!
//! Run with:
//! ```sh
//! cargo run --release -p healthmon --example model_zoo
//! ```

use healthmon::{BackendSpec, CrossbarConfig, Detector, InferenceBackend, SdcCriterion, TestPatternSet};
use healthmon_faults::{FaultCampaign, FaultModel};
use healthmon_nn::zoo;
use healthmon_reram::{deploy, MappedNetwork};
use healthmon_tensor::{SeededRng, Tensor};

fn main() {
    let exact = BackendSpec::analog(CrossbarConfig {
        rows: 4096,
        cols: 4096,
        ..CrossbarConfig::exact()
    });

    println!("model      | params  | mapped | tiles | util  | exact analog | pv:0.4 verdict");
    println!("-----------+---------+--------+-------+-------+--------------+---------------");
    for spec in zoo::ZOO {
        let mut rng = SeededRng::new(2020);
        let model = spec.build(&mut rng);

        // Random probe batch in the model's native input shape.
        let mut probe_shape = vec![6usize];
        probe_shape.extend_from_slice(spec.input_shape);
        let probes = Tensor::randn(&probe_shape, &mut rng);

        // Exact-crossbar deployment: utilization and bit-identity.
        let (_, report) = deploy(&model, &CrossbarConfig::ideal(), &mut rng.fork(1));
        let utilization = report.mappings.iter().map(|m| m.utilization).sum::<f32>()
            / report.mappings.len() as f32;

        let digital = model.infer(&probes);
        let backend = MappedNetwork::program(&model, &exact, &mut rng.fork(2));
        let analog = backend.infer(&probes);
        let bitwise = digital
            .as_slice()
            .iter()
            .zip(analog.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());

        // Concurrent test: 10 random patterns against a damaged device.
        let patterns = TestPatternSet::new(
            "zoo-probe",
            Tensor::randn(&{
                let mut s = vec![10usize];
                s.extend_from_slice(spec.input_shape);
                s
            }, &mut rng),
        );
        let detector = Detector::new(&model, patterns);
        let campaign = FaultCampaign::new(&model, 77);
        let faulty_dev = campaign.model(&FaultModel::ProgrammingVariation { sigma: 0.4 }, 0);
        let verdict = detector.is_faulty(&faulty_dev, SdcCriterion::SdcA { threshold: 1e-3 });

        println!(
            "{:<10} | {:>7} | {:>6} | {:>5} | {:>4.0}% | {:<12} | {}",
            spec.name,
            model.num_params(),
            report.mappings.len(),
            report.total_tiles(),
            utilization * 100.0,
            if bitwise { "bit-exact" } else { "DIVERGED" },
            if verdict { "detected" } else { "missed" }
        );
    }
}
