//! The fault model taxonomy and its weight-space semantics.

use healthmon_nn::Network;
use healthmon_serdes::{FromJson, Json, JsonError, ToJson};
use healthmon_tensor::{fastmath, SeededRng, Tensor};
use healthmon_telemetry as tel;

// Fault application counts are functions of (model, seed, index) only —
// RNG streams are per-index, never per-thread — so they are Stable.
static PV_APPLIED: tel::Counter = tel::Counter::new("faults.pv.applied", tel::Stability::Stable);
static SOFT_ERROR_FLIPS: tel::Counter =
    tel::Counter::new("faults.soft_error.flips", tel::Stability::Stable);
static STUCK_AT_CELLS: tel::Counter =
    tel::Counter::new("faults.stuck_at.cells", tel::Stability::Stable);
static DRIFT_APPLIED: tel::Counter =
    tel::Counter::new("faults.drift.applied", tel::Stability::Stable);

/// A device-error model applied to a network's ReRAM-mapped weights.
///
/// All models act on parameters whose state-dict key ends in `weight`
/// (conductance-mapped values); biases are implemented in CMOS periphery
/// on the accelerators the paper targets and are left untouched.
///
/// Each variant is deterministic given the injection RNG, serializable,
/// and composable through [`FaultModel::Compound`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultModel {
    /// Programming variation: `w' = w · e^θ` with `θ ~ N(0, σ²)` — the
    /// lognormal multiplicative error of imprecise conductance writes
    /// (paper §II-B / §IV-A).
    ProgrammingVariation {
        /// Noise intensity σ of the underlying normal.
        sigma: f32,
    },
    /// Random soft error: each weight is independently corrupted with
    /// probability `p`. A corrupted weight is replaced by a uniform draw
    /// over `[-m, m]` where `m` is the max |w| of its tensor — the
    /// weight-space image of a conductance state flipping to an arbitrary
    /// level (paper §IV-A).
    RandomSoftError {
        /// Per-weight corruption probability.
        probability: f64,
    },
    /// Stuck-at faults: a fraction `sa0` of cells freeze in the
    /// high-resistance state (weight → 0) and a fraction `sa1` in the
    /// low-resistance state (weight → ±max|w| of the tensor, keeping the
    /// sign of the original value).
    StuckAt {
        /// Fraction of cells stuck at zero conductance.
        sa0: f64,
        /// Fraction of cells stuck at full conductance.
        sa1: f64,
    },
    /// Resistance drift: monotone conductance decay over time,
    /// `w' = w · e^(−ν·t)` with per-cell `ν ~ |N(0, nu)|`. `time` is in
    /// arbitrary units; `t = 0` is the identity.
    Drift {
        /// Scale of the per-cell drift-rate distribution.
        nu: f32,
        /// Elapsed time in arbitrary units.
        time: f32,
    },
    /// Sequential composition: applies each member in order with
    /// independent RNG streams (e.g. programming variation at deployment
    /// followed by drift in the field).
    Compound(
        /// Members applied first-to-last.
        Vec<FaultModel>,
    ),
}

impl FaultModel {
    /// Applies the fault model to `net` in place, drawing randomness from
    /// `rng`.
    ///
    /// # Panics
    ///
    /// Panics if [`FaultModel::validate`] rejects a parameter (negative
    /// or non-finite σ, probability outside `[0, 1]`, `sa0 + sa1 > 1`, or
    /// negative or non-finite drift parameters).
    pub fn apply(&self, net: &mut Network, rng: &mut SeededRng) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        match self {
            FaultModel::ProgrammingVariation { sigma } => {
                // One streamed draw per tensor: the block sampler is
                // several times faster than a per-weight `lognormal()`
                // call, and this loop is the dominant cost of a fault
                // campaign.
                for_each_weight(net, |t| {
                    rng.apply_normal(&mut [t.as_mut_slice()], 0.0, *sigma, |w, z| {
                        *w *= fastmath::exp(z);
                    });
                });
                PV_APPLIED.inc();
            }
            FaultModel::RandomSoftError { probability } => {
                let mut flips = 0u64;
                for_each_weight(net, |t| {
                    let m = max_abs(t);
                    if m == 0.0 {
                        return;
                    }
                    for w in t.as_mut_slice() {
                        if rng.chance(*probability) {
                            *w = rng.uniform(-m, m);
                            flips += 1;
                        }
                    }
                });
                SOFT_ERROR_FLIPS.add(flips);
            }
            FaultModel::StuckAt { sa0, sa1 } => {
                let mut stuck = 0u64;
                for_each_weight(net, |t| {
                    let m = max_abs(t);
                    for w in t.as_mut_slice() {
                        let u = rng.unit() as f64;
                        if u < *sa0 {
                            *w = 0.0;
                            stuck += 1;
                        } else if u < sa0 + sa1 {
                            *w = if *w >= 0.0 { m } else { -m };
                            stuck += 1;
                        }
                    }
                });
                STUCK_AT_CELLS.add(stuck);
            }
            // Bound by value: the update would reload a captured `&f32`
            // on every weight, which keeps it from vectorizing.
            &FaultModel::Drift { nu, time } => {
                for_each_weight(net, |t| {
                    rng.apply_normal(&mut [t.as_mut_slice()], 0.0, nu, |w, z| {
                        *w *= fastmath::exp(-z.abs() * time);
                    });
                });
                DRIFT_APPLIED.inc();
            }
            FaultModel::Compound(members) => {
                for (i, member) in members.iter().enumerate() {
                    let mut stream = rng.fork(i as u64);
                    member.apply(net, &mut stream);
                }
            }
        }
    }

    /// A short human-readable descriptor, e.g. `pv(sigma=0.20)`.
    pub fn describe(&self) -> String {
        match self {
            FaultModel::ProgrammingVariation { sigma } => format!("pv(sigma={sigma:.2})"),
            FaultModel::RandomSoftError { probability } => format!("soft(p={probability})"),
            FaultModel::StuckAt { sa0, sa1 } => format!("stuck(sa0={sa0},sa1={sa1})"),
            FaultModel::Drift { nu, time } => format!("drift(nu={nu},t={time})"),
            FaultModel::Compound(members) => {
                let inner: Vec<String> = members.iter().map(|m| m.describe()).collect();
                format!("compound[{}]", inner.join("+"))
            }
        }
    }

    /// Checks every parameter of the model, recursing into
    /// [`FaultModel::Compound`] members; the error names the first bad
    /// parameter. σ, ν and `t` must be finite: an infinite σ overflows
    /// the weights and an infinite drift zeroes them, with no other sign.
    pub fn validate(&self) -> Result<(), String> {
        let finite = |name: &str, v: f32| match v.is_finite() && v >= 0.0 {
            true => Ok(()),
            false => Err(format!("{name} must be finite and non-negative, got {v}")),
        };
        match self {
            FaultModel::ProgrammingVariation { sigma } => finite("sigma", *sigma),
            FaultModel::RandomSoftError { probability } if !(0.0..=1.0).contains(probability) => {
                Err(format!("probability {probability} outside [0, 1]"))
            }
            FaultModel::StuckAt { sa0, sa1 } if !(*sa0 >= 0.0 && *sa1 >= 0.0 && sa0 + sa1 <= 1.0) => {
                Err(format!(
                    "stuck-at fractions must be non-negative and sum to at most 1, \
                     got sa0={sa0}, sa1={sa1}"
                ))
            }
            FaultModel::RandomSoftError { .. } | FaultModel::StuckAt { .. } => Ok(()),
            FaultModel::Drift { nu, time } => {
                finite("nu", *nu)?;
                finite("time", *time)
            }
            FaultModel::Compound(members) => members.iter().try_for_each(FaultModel::validate),
        }
    }
}

// Externally-tagged encoding, matching what the previous serde derive
// produced: `{"ProgrammingVariation":{"sigma":0.2}}`,
// `{"Compound":[...]}` — so recorded campaign configs keep loading.
impl ToJson for FaultModel {
    fn to_json(&self) -> Json {
        let (tag, body) = match self {
            FaultModel::ProgrammingVariation { sigma } => (
                "ProgrammingVariation",
                Json::Object(vec![("sigma".to_owned(), sigma.to_json())]),
            ),
            FaultModel::RandomSoftError { probability } => (
                "RandomSoftError",
                Json::Object(vec![("probability".to_owned(), probability.to_json())]),
            ),
            FaultModel::StuckAt { sa0, sa1 } => (
                "StuckAt",
                Json::Object(vec![
                    ("sa0".to_owned(), sa0.to_json()),
                    ("sa1".to_owned(), sa1.to_json()),
                ]),
            ),
            FaultModel::Drift { nu, time } => (
                "Drift",
                Json::Object(vec![
                    ("nu".to_owned(), nu.to_json()),
                    ("time".to_owned(), time.to_json()),
                ]),
            ),
            FaultModel::Compound(members) => ("Compound", members.to_json()),
        };
        Json::Object(vec![(tag.to_owned(), body)])
    }
}

impl FromJson for FaultModel {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let Json::Object(fields) = value else {
            return Err(JsonError::type_error("fault model object", value));
        };
        let [(tag, body)] = fields.as_slice() else {
            return Err(JsonError::invalid(format!(
                "fault model must have exactly one variant tag, got {} fields",
                fields.len()
            )));
        };
        match tag.as_str() {
            "ProgrammingVariation" => Ok(FaultModel::ProgrammingVariation {
                sigma: f32::from_json(body.field("sigma")?)?,
            }),
            "RandomSoftError" => Ok(FaultModel::RandomSoftError {
                probability: f64::from_json(body.field("probability")?)?,
            }),
            "StuckAt" => Ok(FaultModel::StuckAt {
                sa0: f64::from_json(body.field("sa0")?)?,
                sa1: f64::from_json(body.field("sa1")?)?,
            }),
            "Drift" => Ok(FaultModel::Drift {
                nu: f32::from_json(body.field("nu")?)?,
                time: f32::from_json(body.field("time")?)?,
            }),
            "Compound" => Ok(FaultModel::Compound(Vec::from_json(body)?)),
            other => Err(JsonError::invalid(format!("unknown fault model variant `{other}`"))),
        }
    }
}

/// Applies `f` to every conductance-mapped parameter tensor (keys ending
/// in `weight`).
fn for_each_weight(net: &mut Network, mut f: impl FnMut(&mut Tensor)) {
    net.for_each_param_mut(|key, t| {
        if key.ends_with("weight") {
            f(t);
        }
    });
}

fn max_abs(t: &Tensor) -> f32 {
    t.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_nn::models::tiny_mlp;

    fn golden() -> Network {
        let mut rng = SeededRng::new(7);
        tiny_mlp(6, 12, 4, &mut rng)
    }

    fn weight_vec(net: &Network) -> Vec<f32> {
        let mut v = Vec::new();
        net.for_each_param(|k, t| {
            if k.ends_with("weight") {
                v.extend_from_slice(t.as_slice());
            }
        });
        v
    }

    fn bias_vec(net: &Network) -> Vec<f32> {
        let mut v = Vec::new();
        net.for_each_param(|k, t| {
            if k.ends_with("bias") {
                v.extend_from_slice(t.as_slice());
            }
        });
        v
    }

    #[test]
    fn programming_variation_is_multiplicative_and_sign_preserving() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::ProgrammingVariation { sigma: 0.3 }.apply(&mut net, &mut SeededRng::new(1));
        let after = weight_vec(&net);
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.signum(), a.signum(), "lognormal factor must preserve sign");
            if *b != 0.0 {
                let factor = a / b;
                assert!(factor > 0.0 && factor < 10.0, "implausible factor {factor}");
            }
        }
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::ProgrammingVariation { sigma: 0.0 }.apply(&mut net, &mut SeededRng::new(1));
        assert_eq!(before, weight_vec(&net));
    }

    #[test]
    fn biases_untouched_by_all_models() {
        for model in [
            FaultModel::ProgrammingVariation { sigma: 0.5 },
            FaultModel::RandomSoftError { probability: 0.5 },
            FaultModel::StuckAt { sa0: 0.3, sa1: 0.3 },
            FaultModel::Drift { nu: 0.5, time: 2.0 },
        ] {
            let mut net = golden();
            // Make biases non-zero first so "untouched" is meaningful.
            net.for_each_param_mut(|k, t| {
                if k.ends_with("bias") {
                    t.map_inplace(|_| 0.25);
                }
            });
            let before = bias_vec(&net);
            model.apply(&mut net, &mut SeededRng::new(2));
            assert_eq!(before, bias_vec(&net), "{} touched biases", model.describe());
        }
    }

    #[test]
    fn soft_error_corrupts_roughly_p_fraction() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::RandomSoftError { probability: 0.2 }.apply(&mut net, &mut SeededRng::new(3));
        let after = weight_vec(&net);
        let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        let frac = changed as f64 / before.len() as f64;
        assert!((0.1..0.3).contains(&frac), "corrupted fraction {frac}");
    }

    #[test]
    fn soft_error_zero_probability_is_identity() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::RandomSoftError { probability: 0.0 }.apply(&mut net, &mut SeededRng::new(3));
        assert_eq!(before, weight_vec(&net));
    }

    #[test]
    fn stuck_at_produces_extremes() {
        let mut net = golden();
        FaultModel::StuckAt { sa0: 0.5, sa1: 0.5 }.apply(&mut net, &mut SeededRng::new(4));
        // With sa0+sa1 = 1 every weight is either 0 or ±max.
        net.for_each_param(|k, t| {
            if k.ends_with("weight") {
                let m = t.as_slice().iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
                for &w in t.as_slice() {
                    assert!(w == 0.0 || w.abs() == m, "weight {w} neither stuck-at-0 nor ±{m}");
                }
            }
        });
    }

    #[test]
    fn drift_shrinks_magnitudes_monotonically() {
        let mut net = golden();
        let before: f32 = weight_vec(&net).iter().map(|v| v.abs()).sum();
        FaultModel::Drift { nu: 0.3, time: 1.0 }.apply(&mut net, &mut SeededRng::new(5));
        let mid: f32 = weight_vec(&net).iter().map(|v| v.abs()).sum();
        FaultModel::Drift { nu: 0.3, time: 1.0 }.apply(&mut net, &mut SeededRng::new(6));
        let after: f32 = weight_vec(&net).iter().map(|v| v.abs()).sum();
        assert!(mid < before && after < mid, "drift must decay: {before} -> {mid} -> {after}");
    }

    #[test]
    fn drift_zero_time_is_identity() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::Drift { nu: 0.3, time: 0.0 }.apply(&mut net, &mut SeededRng::new(5));
        assert_eq!(before, weight_vec(&net));
    }

    #[test]
    fn compound_applies_all_members() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::Compound(vec![
            FaultModel::ProgrammingVariation { sigma: 0.1 },
            FaultModel::StuckAt { sa0: 0.1, sa1: 0.0 },
        ])
        .apply(&mut net, &mut SeededRng::new(7));
        let after = weight_vec(&net);
        assert_ne!(before, after);
        // Stuck-at-zero member must have produced some exact zeros.
        assert!(after.iter().filter(|&&v| v == 0.0).count() > before.iter().filter(|&&v| v == 0.0).count());
    }

    #[test]
    fn application_is_deterministic() {
        let model = FaultModel::ProgrammingVariation { sigma: 0.25 };
        let mut a = golden();
        let mut b = golden();
        model.apply(&mut a, &mut SeededRng::new(11));
        model.apply(&mut b, &mut SeededRng::new(11));
        assert_eq!(weight_vec(&a), weight_vec(&b));
    }

    #[test]
    fn serde_round_trip() {
        let model = FaultModel::Compound(vec![
            FaultModel::ProgrammingVariation { sigma: 0.2 },
            FaultModel::RandomSoftError { probability: 0.01 },
        ]);
        let json = healthmon_serdes::to_string(&model);
        let back: FaultModel = healthmon_serdes::from_str(&json).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn legacy_serde_tagging_loads() {
        // Exactly the externally-tagged layout the old serde derive wrote.
        let json = "{\"Compound\":[{\"ProgrammingVariation\":{\"sigma\":0.2}},\
                     {\"StuckAt\":{\"sa0\":0.1,\"sa1\":0.05}}]}";
        let model: FaultModel = healthmon_serdes::from_str(json).unwrap();
        assert_eq!(
            model,
            FaultModel::Compound(vec![
                FaultModel::ProgrammingVariation { sigma: 0.2 },
                FaultModel::StuckAt { sa0: 0.1, sa1: 0.05 },
            ])
        );
        assert!(healthmon_serdes::from_str::<FaultModel>("{\"NoSuchFault\":{}}").is_err());
    }

    #[test]
    fn describe_is_informative() {
        assert_eq!(
            FaultModel::ProgrammingVariation { sigma: 0.2 }.describe(),
            "pv(sigma=0.20)"
        );
        assert!(FaultModel::Compound(vec![FaultModel::Drift { nu: 0.1, time: 1.0 }])
            .describe()
            .contains("drift"));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_probability() {
        FaultModel::RandomSoftError { probability: 1.5 }
            .apply(&mut golden(), &mut SeededRng::new(0));
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn rejects_bad_stuck_fractions() {
        FaultModel::StuckAt { sa0: 0.7, sa1: 0.7 }.apply(&mut golden(), &mut SeededRng::new(0));
    }

    /// FNV-1a over the exact bit patterns of every weight.
    fn weight_digest(net: &Network) -> u64 {
        weight_vec(net).iter().flat_map(|w| w.to_bits().to_le_bytes()).fold(
            0xcbf2_9ce4_8422_2325,
            |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3),
        )
    }

    #[test]
    fn per_weight_sampling_matches_pinned_digests() {
        // Pinned from the two-pass bulk sampler that the streamed one
        // replaced. The 600- and 300-weight layers cover full sampler
        // blocks and the pairwise remainder.
        let cases = [
            (FaultModel::Drift { nu: 0.3, time: 1.0 }, 11, 0x7363_5730_3383_66ddu64),
            (FaultModel::Drift { nu: 0.05, time: 4.0 }, 12, 0x1d42_0bea_58ae_35fc),
            (FaultModel::ProgrammingVariation { sigma: 0.2 }, 13, 0x39da_b5f0_56d8_69c9),
            (FaultModel::ProgrammingVariation { sigma: 0.6 }, 14, 0xba2e_1c8f_9a68_a372),
        ];
        for (model, seed, want) in cases {
            let mut net = tiny_mlp(20, 30, 10, &mut SeededRng::new(5));
            model.apply(&mut net, &mut SeededRng::new(seed));
            assert_eq!(weight_digest(&net), want, "{} at seed {seed}", model.describe());
        }
    }

    #[test]
    fn validate_rejects_non_finite_parameters() {
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            for (model, param) in [
                (FaultModel::ProgrammingVariation { sigma: bad }, "sigma"),
                (FaultModel::Drift { nu: bad, time: 1.0 }, "nu"),
                (FaultModel::Drift { nu: 0.1, time: bad }, "time"),
                (FaultModel::Compound(vec![FaultModel::Drift { nu: bad, time: 1.0 }]), "nu"),
            ] {
                let err = model.validate().expect_err(&model.describe());
                assert!(err.starts_with(param), "{}: {err}", model.describe());
            }
        }
        for bad in [f64::INFINITY, f64::NAN] {
            assert!(FaultModel::RandomSoftError { probability: bad }.validate().is_err());
            assert!(FaultModel::StuckAt { sa0: bad, sa1: 0.0 }.validate().is_err());
            assert!(FaultModel::StuckAt { sa0: 0.0, sa1: bad }.validate().is_err());
        }
        assert_eq!(FaultModel::Drift { nu: 0.0, time: 0.0 }.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "time must be finite")]
    fn rejects_infinite_drift_time() {
        FaultModel::Drift { nu: 0.1, time: f32::INFINITY }
            .apply(&mut golden(), &mut SeededRng::new(0));
    }
}
