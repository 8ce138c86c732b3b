//! The four workloads. Each is a sequence of identical *rounds*: a round
//! builds its working state from the seed (the set-up sample), then runs
//! a fixed list of timed *steps*. Every round of a run does the same
//! simulated work, so every round must produce the same output digest.

use crate::stats::{timed, Fnv, TelCapture};
use healthmon::{
    AetGenerator, AgingModel, BackendSpec, CrossbarConfig, CtpGenerator, Detector, FleetConfig,
    FleetSupervisor, LifetimeConfig, MonitorPolicy, OtpGenerator, SdcCriterion, TestPatternSet,
};
use healthmon_data::{Dataset, DatasetSpec, SynthDigits};
use healthmon_faults::{FaultCampaign, FaultModel};
use healthmon_nn::{zoo, Network};
use healthmon_telemetry as tel;
use healthmon_tensor::{SeededRng, Tensor};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    FleetAging,
    Campaign,
    Testgen,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet-steady" => Some(Workload::FleetSteady),
            "fleet-aging" => Some(Workload::FleetAging),
            "campaign" => Some(Workload::Campaign),
            "testgen" => Some(Workload::Testgen),
            _ => None,
        }
    }

    pub fn is_fleet(self) -> bool {
        matches!(self, Workload::FleetSteady | Workload::FleetAging)
    }

    /// Runs one round from `seed`.
    pub fn round(self, seed: u64) -> (Round, Fixture) {
        match self {
            Workload::FleetSteady | Workload::FleetAging => fleet_round(self, seed),
            Workload::Campaign => campaign_round(seed),
            Workload::Testgen => testgen_round(seed),
        }
    }
}

/// What one round measured and simulated.
#[derive(Debug, Default)]
pub struct Round {
    /// Host seconds spent building the round's working state.
    pub setup_s: f64,
    /// Host seconds of each timed step, in order.
    pub steps_s: Vec<f64>,
    /// Named host-time parts of the steps (per backend, per generator).
    pub parts: Vec<(&'static str, f64)>,
    /// Work items completed, each one attempted operation: device-epochs
    /// (checkups), fault models or patterns.
    pub work: usize,
    /// Attempted operations that failed (fleet incidents).
    pub failed: usize,
    /// Simulated statistics, printed for the reader and compared across
    /// rounds together with `digest`.
    pub stats: Vec<(String, String)>,
    pub digest: u64,
    /// Telemetry recorded during the steps (only while tracing).
    pub tel: TelCapture,
}

impl Round {
    fn stat(&mut self, name: &str, value: impl ToString) {
        self.stats.push((name.to_owned(), value.to_string()));
    }

    /// A numeric simulated statistic (0 if absent).
    pub fn stat_value(&self, name: &str) -> f64 {
        self.stats
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0.0)
    }

    pub fn steps_total_s(&self) -> f64 {
        self.steps_s.iter().sum()
    }

    pub fn part_s(&self, name: &str) -> f64 {
        self.parts
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, t)| t)
            .sum()
    }
}

/// The working state a round leaves behind, for the traced run's
/// per-layer probes. Only the last round's fixture is kept, so variant
/// sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Fixture {
    Fleet {
        golden: Network,
        patterns: TestPatternSet,
        config: FleetConfig,
        fleet: FleetSupervisor,
    },
    Campaign {
        models: Vec<ZooCase>,
    },
    Testgen {
        net: Network,
        pool: Dataset,
    },
}

/// Telemetry recorded between `trace_begin` and `trace_end` (nothing
/// while tracing is off).
fn trace_begin() -> Option<TelCapture> {
    tel::enabled().then(TelCapture::now)
}

fn trace_end(begin: Option<TelCapture>) -> TelCapture {
    begin
        .map(|b| TelCapture::now().since(&b))
        .unwrap_or_default()
}

// ---- fleets ---------------------------------------------------------------

/// Devices and epochs per fleet round.
const STEADY_DEVICES: usize = 128;
const STEADY_EPOCHS: usize = 40;
const AGING_DEVICES: usize = 64;
const AGING_EPOCHS: usize = 16;
/// Seed of the fleets' golden model and pattern set.
const MODEL_SEED: u64 = 2020;
/// Test patterns per checkup.
const PATTERNS: usize = 8;

/// The golden `mlp`, its pattern set and the fleet configuration. The
/// golden model is fixed: its distance from the repair threshold decides
/// how often devices repair, so the seed drives only the fleet's aging
/// streams and every seed does a similar amount of work.
fn fleet_setup(workload: Workload, seed: u64) -> (Network, TestPatternSet, FleetConfig) {
    let mut rng = SeededRng::new(MODEL_SEED);
    let golden = zoo::lookup("mlp")
        .expect("mlp is in the zoo")
        .build(&mut rng);
    let patterns = TestPatternSet::new("perfbench", Tensor::randn(&[PATTERNS, 784], &mut rng));
    let (devices, device) = match workload {
        Workload::FleetSteady => (
            STEADY_DEVICES,
            LifetimeConfig {
                epochs: STEADY_EPOCHS,
                aging: AgingModel {
                    drift_nu: 0.002,
                    drift_time: 1.0,
                    soft_error_p: 0.0,
                    stuck_lambda: 0.0,
                },
                ..LifetimeConfig::default()
            },
        ),
        _ => (
            AGING_DEVICES,
            LifetimeConfig {
                epochs: AGING_EPOCHS,
                aging: AgingModel {
                    drift_nu: 0.5,
                    drift_time: 1.0,
                    soft_error_p: 1e-4,
                    stuck_lambda: 2.0,
                },
                backend: BackendSpec::analog(CrossbarConfig::default()),
                repair_budget: 4 * AGING_EPOCHS,
                // A freshly programmed analog mlp already sits at ~0.055
                // from the digital golden responses (quantization), so
                // the thresholds sit above that and aging crosses them.
                policy: MonitorPolicy {
                    watch_threshold: 0.07,
                    critical_threshold: 0.2,
                    escalation_count: 1,
                },
                ..LifetimeConfig::default()
            },
        ),
    };
    let config = FleetConfig {
        seed,
        devices,
        device,
        ..FleetConfig::default()
    };
    (golden, patterns, config)
}

fn fleet_round(workload: Workload, seed: u64) -> (Round, Fixture) {
    let mut round = Round::default();
    let ((golden, patterns, config, mut fleet), setup_s) = timed(|| {
        let (golden, patterns, config) = fleet_setup(workload, seed);
        let fleet = FleetSupervisor::new(&golden, patterns.clone(), config)
            .expect("valid fleet configuration");
        (golden, patterns, config, fleet)
    });
    round.setup_s = setup_s;
    let begin = trace_begin();
    for _ in 0..config.device.epochs {
        round.steps_s.push(timed(|| fleet.run_epoch()).1);
    }
    round.tel = trace_end(begin);
    fleet_stats(&fleet, &mut round);
    (
        round,
        Fixture::Fleet {
            golden,
            patterns,
            config,
            fleet,
        },
    )
}

/// Fills the simulated statistics, work counts and digest of a fleet.
fn fleet_stats(fleet: &FleetSupervisor, round: &mut Round) {
    let report = fleet.render_report();
    let summaries = fleet.device_summaries();
    let sum_field = |field: &str| -> usize {
        summaries
            .iter()
            .filter_map(|s| s.split_whitespace().find_map(|w| w.strip_prefix(field)))
            .filter_map(|v| v.split('/').next()?.parse::<usize>().ok())
            .sum()
    };
    let device_epochs = fleet.total_device_epochs();
    let (healthy, watch, critical) = fleet.state_histogram();
    round.work = device_epochs;
    round.failed = fleet.incidents().len();
    round.stat("device_epochs", device_epochs);
    round.stat("checkups", device_epochs);
    round.stat("repairs", sum_field("repairs="));
    round.stat("stuck_cells", sum_field("stuck="));
    round.stat(
        "parked",
        summaries.iter().filter(|s| s.contains(" PARKED")).count(),
    );
    round.stat("quarantined", fleet.quarantined().len());
    round.stat(
        "states",
        format!("healthy={healthy} watch={watch} critical={critical}"),
    );
    let mut digest = Fnv::default();
    digest.bytes(report.as_bytes());
    round.digest = digest.0;
}

// ---- campaign -------------------------------------------------------------

/// One zoo architecture with its pattern set, detector and the number of
/// fault models its campaigns evaluate. Counts are sized so that every
/// architecture costs a similar share of a backend's sweep.
pub struct ZooCase {
    pub name: &'static str,
    pub net: Network,
    pub detector: Detector,
    pub count: usize,
}

const CAMPAIGN_COUNTS: &[(&str, usize)] = &[
    ("lenet5", 24),
    ("convnet7", 2),
    ("mlp", 128),
    ("resnet8", 14),
    ("mlp4", 24),
    ("attention", 72),
];
pub const PV_SIGMA: f32 = 0.3;

pub fn backends() -> [(&'static str, BackendSpec); 3] {
    [
        ("digital", BackendSpec::digital()),
        ("analog", BackendSpec::analog(CrossbarConfig::default())),
        (
            "bitsliced",
            BackendSpec::bitsliced(CrossbarConfig::default(), 8),
        ),
    ]
}

fn campaign_setup(seed: u64) -> Vec<ZooCase> {
    CAMPAIGN_COUNTS
        .iter()
        .enumerate()
        .map(|(i, &(name, count))| {
            let spec = zoo::lookup(name).expect("campaign models are in the zoo");
            let mut rng = SeededRng::new(seed).fork(10 + i as u64);
            let net = spec.build(&mut rng);
            let mut shape = vec![PATTERNS];
            shape.extend_from_slice(spec.input_shape);
            let patterns = TestPatternSet::new("perfbench", Tensor::randn(&shape, &mut rng));
            let detector = Detector::new(&net, patterns);
            ZooCase {
                name,
                net,
                detector,
                count,
            }
        })
        .collect()
}

fn campaign_round(seed: u64) -> (Round, Fixture) {
    let mut round = Round::default();
    let (models, setup_s) = timed(|| campaign_setup(seed));
    round.setup_s = setup_s;
    let fault = FaultModel::ProgrammingVariation { sigma: PV_SIGMA };
    let criteria = [SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }];
    let mut digest = Fnv::default();
    let begin = trace_begin();
    for (backend, spec) in backends() {
        for case in &models {
            let (rates, t) = timed(|| {
                case.detector
                    .detection_rates_with(&case.net, &fault, case.count, seed, &criteria, &spec)
            });
            round.steps_s.push(t);
            round.parts.push((backend, t));
            round.work += case.count;
            digest.f32s(&rates);
            round.stat(
                &format!("detect.{}.{backend}", case.name),
                format!("sdc1={} sdca={} models={}", rates[0], rates[1], case.count),
            );
        }
    }
    round.tel = trace_end(begin);
    round.digest = digest.0;
    (round, Fixture::Campaign { models })
}

// ---- test generation ------------------------------------------------------

/// Generation passes per round; each pass draws its own pool subset and
/// generator streams, so no two passes in a round do identical work.
pub const TESTGEN_PASSES: usize = 8;
pub const TESTGEN_COUNT: usize = 10;
const OTP_ITERS: usize = 12;
const POOL: usize = 320;
const POOL_SUBSET: usize = 120;

fn testgen_setup(seed: u64) -> (Network, Dataset, Network) {
    let mut rng = SeededRng::new(seed).fork(20);
    let net = zoo::lookup("lenet5")
        .expect("lenet5 is in the zoo")
        .build(&mut rng);
    let spec = DatasetSpec {
        train: 1,
        test: POOL,
        seed,
        noise: 0.1,
    };
    let pool = SynthDigits::new(spec).generate().test;
    let reference = FaultCampaign::new(&net, seed)
        .model(&FaultModel::ProgrammingVariation { sigma: PV_SIGMA }, 0);
    (net, pool, reference)
}

fn testgen_round(seed: u64) -> (Round, Fixture) {
    let mut round = Round::default();
    let ((net, pool, reference), setup_s) = timed(|| testgen_setup(seed));
    round.setup_s = setup_s;
    let mut digest = Fnv::default();
    let (mut iters, mut converged, mut otp_patterns) = (0usize, 0usize, 0usize);
    let begin = trace_begin();
    for pass in 0..TESTGEN_PASSES {
        let mut rng = SeededRng::new(seed).fork(100 + pass as u64);
        let t0 = std::time::Instant::now();
        let subset = pool.random_subset(POOL_SUBSET, &mut rng);
        let mut work_net = net.clone();
        let (ctp, t_ctp) =
            timed(|| CtpGenerator::new(TESTGEN_COUNT).select(&mut work_net, &subset));
        let (aet, t_aet) = timed(|| {
            AetGenerator::new(TESTGEN_COUNT, 0.1).generate(&mut work_net, &subset, &mut rng)
        });
        let ((otp, outcomes), t_otp) = timed(|| {
            OtpGenerator::new()
                .max_iters(OTP_ITERS)
                .generate(&net, &reference, &mut rng)
        });
        round.steps_s.push(t0.elapsed().as_secs_f64());
        round
            .parts
            .extend([("ctp", t_ctp), ("aet", t_aet), ("otp", t_otp)]);
        for set in [&ctp, &aet, &otp] {
            digest.f32s(set.images().as_slice());
            round.work += set.len();
        }
        iters += outcomes.iter().map(|o| o.iterations).sum::<usize>();
        converged += outcomes.iter().filter(|o| o.converged).count();
        otp_patterns += outcomes.len();
    }
    round.tel = trace_end(begin);
    round.stat("patterns", round.work);
    round.stat("otp_patterns", otp_patterns);
    round.stat("otp_iterations", iters);
    round.stat("otp_converged", converged);
    digest.bytes(&(iters as u64).to_le_bytes());
    digest.bytes(&(converged as u64).to_le_bytes());
    round.digest = digest.0;
    (round, Fixture::Testgen { net, pool })
}
