//! healthmon's benchmark: drives the fleet supervisor, lifetime runtime,
//! detector, crossbar backends and pattern generators through their
//! public API and reports host-time metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-steady --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` reports its per-layer metrics (see `README.md`). The last
//! line of standard output is the JSON result.

mod probes;
mod stats;
mod workloads;

use stats::{median, quantile, Fnv, TelCapture};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;
use workloads::{Round, Workload};

use healthmon_serdes::Json;
use healthmon_telemetry as tel;

/// Steps an untraced run measures at least, so that ten lie beyond the
/// reported 90th percentile.
const MIN_STEPS: usize = 100;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, String)>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one untraced round and print its digest and step
    /// time (the `HEALTHMON_THREADS=1` comparison run).
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = Workload::parse(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    if args.child {
        let (round, _) = workload.round(args.seed);
        println!("child {:016x} {}", round.digest, round.steps_total_s());
        return Ok(());
    }
    let spec = BenchSpec::load()?;
    let threads = healthmon_tensor::pool::max_threads();
    println!(
        "workload {} seed {} threads {threads} trace {}",
        args.workload, args.seed, args.trace as u8
    );

    let mut metrics = Metrics::new();
    let mut rounds = Vec::new();
    let mut fixture = None;
    // Rounds until `budget_s` has passed and at least `min_rounds`
    // rounds and `min_steps` steps were measured.
    let mut run_rounds = |rounds: &mut Vec<Round>,
                          budget_s: f64,
                          min_rounds: usize,
                          min_steps: usize| {
        let t0 = Instant::now();
        let start = rounds.len();
        loop {
            let steps: usize = rounds[start..].iter().map(|r| r.steps_s.len()).sum();
            let done = rounds.len() - start;
            if done >= min_rounds && steps >= min_steps && t0.elapsed().as_secs_f64() >= budget_s {
                break;
            }
            let (round, fx) = workload.round(args.seed);
            rounds.push(round);
            fixture = Some(fx);
        }
    };

    let untraced = if !args.trace {
        run_rounds(&mut rounds, args.seconds, 3, MIN_STEPS);
        rounds.len()
    } else {
        // Untraced rounds, then traced rounds of the same work: the
        // difference is the tracing overhead.
        run_rounds(&mut rounds, 0.35 * args.seconds, 1, 0);
        let untraced = rounds.len();
        tel::set_enabled(true);
        run_rounds(&mut rounds, 0.35 * args.seconds, 1, 0);
        tel::set_enabled(false);
        let (plain, traced) = rounds.split_at(untraced);
        traced_metrics(workload, plain, traced, threads, &mut metrics);
        untraced
    };

    // Simulated-output check: every round, the stored digest of earlier
    // runs of this seed, and (traced) a HEALTHMON_THREADS=1 run.
    let first = &rounds[0];
    let mut correct = true;
    for (name, value) in &first.stats {
        println!("stat {name} {value}");
    }
    println!("digest {:016x}", first.digest);
    if let Some(bad) = rounds
        .iter()
        .position(|r| r.digest != first.digest || r.stats != first.stats)
    {
        println!(
            "MISMATCH: round {bad} digest {:016x} differs from round 0",
            rounds[bad].digest
        );
        correct = false;
    }
    correct &= check_stored_digest(&args, first.digest)?;
    let fixture = fixture.expect("at least one round ran");
    if workload == Workload::FleetSteady {
        correct &= probes::checkpoint_roundtrip(&fixture, args.trace, &mut metrics)?;
    }
    if args.trace {
        let (digest, t1) = run_single_thread(&args)?;
        println!("digest at HEALTHMON_THREADS=1 {digest:016x}");
        if digest != first.digest {
            println!("MISMATCH: HEALTHMON_THREADS=1 digest differs");
            correct = false;
        }
        if workload.is_fleet() {
            let plain: Vec<f64> = rounds[..untraced]
                .iter()
                .map(Round::steps_total_s)
                .collect();
            let tn = median(&plain);
            put(&mut metrics, "fleet.speedup_1_to_n", t1 / tn, "x");
        }
        let (probes_ok, probe_s) = stats::timed(|| probes::run(workload, &fixture, &mut metrics));
        correct &= probes_ok;
        println!("per-layer probes took {probe_s:.3} s");
    } else {
        end_to_end(&rounds, &mut metrics);
    }

    let attempted: usize = rounds.iter().map(|r| r.work).sum();
    let failed: usize = rounds.iter().map(|r| r.failed).sum();
    let result = spec.finish(metrics, args.trace)?;
    println!(
        "rounds {} attempted {attempted} failed {failed}",
        rounds.len()
    );
    for (name, (value, unit)) in &result {
        println!("metric {name} = {value} {unit}");
    }
    let body: Vec<String> = result
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && failed == 0,
        body.join(", ")
    );
    Ok(())
}

pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &str) {
    metrics.insert(name.to_owned(), (value, unit.to_owned()));
}

fn end_to_end(rounds: &[Round], metrics: &mut Metrics) {
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let steps: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.steps_s.iter().copied())
        .collect();
    let work: usize = rounds.iter().map(|r| r.work).sum();
    put(metrics, "setup_s", median(&setups), "s");
    put(
        metrics,
        "work_per_s",
        work as f64 / steps.iter().sum::<f64>(),
        "1/s",
    );
    put(metrics, "step_ms_p50", 1e3 * quantile(&steps, 0.5), "ms");
    put(metrics, "step_ms_p90", 1e3 * quantile(&steps, 0.9), "ms");
    put(metrics, "peak_rss_mb", stats::peak_rss_mb(), "MB");
    println!("samples: {} steps, {} set-ups", steps.len(), setups.len());
}

/// Per-layer figures read from the telemetry of the traced rounds.
fn traced_metrics(
    workload: Workload,
    plain: &[Round],
    traced: &[Round],
    threads: usize,
    metrics: &mut Metrics,
) {
    let mut t = TelCapture::default();
    for r in traced {
        t.merge(&r.tel);
    }
    let step_wall: f64 = traced.iter().map(Round::steps_total_s).sum();
    let work: f64 = traced.iter().map(|r| r.work as f64).sum();
    let plain_s = median(&plain.iter().map(Round::steps_total_s).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(Round::steps_total_s).collect::<Vec<_>>());
    put(
        metrics,
        "trace.overhead_ratio",
        traced_s / plain_s - 1.0,
        "ratio",
    );

    let phases = ["detector", "diagnose", "repair"].map(|p| t.hist_sum_s(&format!("phase.{p}_ns")));
    let crossbar = ["dac", "accumulate", "adc"].map(|p| t.hist_sum_s(&format!("phase.{p}_ns")));
    let attributed: f64 = if workload.is_fleet() {
        phases.iter().sum()
    } else {
        crossbar.iter().sum()
    };
    put(
        metrics,
        "trace.unattributed_share",
        1.0 - (attributed / (step_wall * threads as f64)).min(1.0),
        "ratio",
    );
    let crossbar_total: f64 = crossbar.iter().sum();
    for (name, v) in ["dac", "accumulate", "adc"].iter().zip(crossbar) {
        put(
            metrics,
            &format!("reram.share.{name}"),
            stats::ratio(v, crossbar_total),
            "ratio",
        );
    }
    let hits = t.counter("reram.dac.cache.hits");
    put(
        metrics,
        "reram.dac_cache_hit_ratio",
        stats::ratio(hits, hits + t.counter("reram.dac.cache.misses")),
        "ratio",
    );
    put(
        metrics,
        "tensor.gemm_flops_per_op",
        stats::ratio(t.counter("gemm.flops"), t.counter("gemm.calls")),
        "count",
    );
    let worker = t.counter("pool.chunks.worker");
    put(
        metrics,
        "tensor.pool.worker_chunk_share",
        stats::ratio(worker, worker + t.counter("pool.chunks.caller")),
        "ratio",
    );
    put(
        metrics,
        "tensor.pool.wait_us_p50",
        t.hist_quantile("pool.wait_ns", 0.5) * 1e-3,
        "us",
    );

    match workload {
        Workload::FleetSteady | Workload::FleetAging => {
            let epoch_s = t.hist_sum_s("lifetime.epoch_ns");
            put(
                metrics,
                "fleet.parallel_efficiency",
                epoch_s / (step_wall * threads as f64),
                "ratio",
            );
            let failed = t.counter("fleet.checkups.failed");
            put(
                metrics,
                "fleet.checkups_failed_ratio",
                stats::ratio(failed, failed + t.counter("fleet.checkups.ok")),
                "ratio",
            );
            for (name, v) in ["detector", "diagnose", "repair"].iter().zip(phases) {
                put(
                    metrics,
                    &format!("runtime.share.{name}"),
                    v / epoch_s,
                    "ratio",
                );
            }
            put(
                metrics,
                "runtime.share.unattributed",
                1.0 - phases.iter().sum::<f64>() / epoch_s,
                "ratio",
            );
            put(
                metrics,
                "runtime.repair_success_ratio",
                stats::ratio(
                    t.counter("lifetime.repairs.succeeded"),
                    t.counter("lifetime.events.repair"),
                ),
                "ratio",
            );
            put(
                metrics,
                "detect.responses_per_device_epoch",
                t.counter("detect.responses") / work,
                "count",
            );
            put(
                metrics,
                "reram.cache_invalidations_per_device_epoch",
                t.counter("reram.cache.invalidations") / work,
                "count",
            );
            put(
                metrics,
                "diagnose.run_ms_p50",
                t.hist_quantile("phase.diagnose_ns", 0.5) * 1e-6,
                "ms",
            );
            put(
                metrics,
                "diagnose.probes_per_run",
                stats::ratio(t.counter("diagnose.probes"), t.counter("diagnose.runs")),
                "count",
            );
            put(
                metrics,
                "repair.session_ms_p50",
                t.hist_quantile("phase.repair_ns", 0.5) * 1e-6,
                "ms",
            );
        }
        Workload::Campaign => {
            for (backend, _) in workloads::backends() {
                let per_round: Vec<f64> = traced.iter().map(|r| r.part_s(backend)).collect();
                put(
                    metrics,
                    &format!("detect.campaign_s.{backend}"),
                    median(&per_round),
                    "s",
                );
            }
        }
        Workload::Testgen => {
            for (part, name) in [
                ("ctp", "ctp.select_s"),
                ("aet", "aet.generate_s"),
                ("otp", "otp.generate_s"),
            ] {
                let per_pass: Vec<f64> = traced
                    .iter()
                    .map(|r| r.part_s(part) / workloads::TESTGEN_PASSES as f64)
                    .collect();
                put(metrics, name, median(&per_pass), "s");
            }
            let round = &traced[0];
            let iters = round.stat_value("otp_iterations") / round.stat_value("otp_patterns");
            put(metrics, "otp.iters", iters, "count");
            put(
                metrics,
                "otp.converged",
                round.stat_value("otp_converged"),
                "count",
            );
        }
    }
}

/// Runs one round of the same workload and seed in a child process at
/// `HEALTHMON_THREADS=1`; returns its digest and step seconds.
fn run_single_thread(args: &Args) -> Result<(u64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--child",
        ])
        .env("HEALTHMON_THREADS", "1")
        .output()
        .map_err(|e| format!("starting the single-thread run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("child "))
        .filter(|_| output.status.success())
        .ok_or_else(|| {
            format!(
                "single-thread run failed: {}",
                String::from_utf8_lossy(&output.stderr)
            )
        })?;
    let mut fields = line.split_whitespace();
    let digest = fields.next().and_then(|d| u64::from_str_radix(d, 16).ok());
    let secs = fields.next().and_then(|s| s.parse::<f64>().ok());
    digest
        .zip(secs)
        .ok_or_else(|| format!("unreadable single-thread result `{line}`"))
}

/// Scratch directory for this run's files, inside the checkout.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

/// Compares the digest with the one stored by an earlier run of the same
/// workload, seed and benchmark binary (stores it on the first run).
fn check_stored_digest(args: &Args, digest: u64) -> Result<bool, String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| e.to_string())?;
    let mut build = Fnv::default();
    build.bytes(&exe);
    let dir = scratch_dir().join("digests");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}-{:016x}", args.workload, args.seed, build.0));
    let ours = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored == ours => Ok(true),
        Ok(stored) => {
            println!("MISMATCH: digest {ours} differs from an earlier run's {stored}");
            Ok(false)
        }
        Err(_) => {
            std::fs::write(&path, &ours).map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(true)
        }
    }
}

/// The metric lists of `BENCHMARK.json`, the single record of what the
/// benchmark reports.
struct BenchSpec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl BenchSpec {
    fn load() -> Result<BenchSpec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))?;
        let json: Json = healthmon_serdes::from_str(&text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            let items = json
                .field(key)
                .and_then(Json::as_array)
                .map_err(|e| e.to_string())?;
            items
                .iter()
                .map(|m| {
                    let name = m
                        .field("name")
                        .and_then(Json::as_str)
                        .map_err(|e| e.to_string())?;
                    let unit = m
                        .field("unit")
                        .and_then(Json::as_str)
                        .map_err(|e| e.to_string())?;
                    Ok((name.to_owned(), unit.to_owned()))
                })
                .collect()
        };
        Ok(BenchSpec {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// Orders the measured metrics as the per-layer (`trace`) or
    /// end-to-end list names them. A per-layer metric whose layer did no
    /// work on this workload reads 0; every end-to-end metric must have
    /// been measured, and nothing may be measured that the list does not
    /// name.
    fn finish(&self, mut measured: Metrics, trace: bool) -> Result<Metrics, String> {
        let wanted = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = Metrics::new();
        for (name, unit) in wanted {
            let value = match measured.remove(name) {
                Some((value, got)) if &got == unit => value,
                Some((_, got)) => {
                    return Err(format!("metric {name} measured in {got}, listed in {unit}"))
                }
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            out.insert(name.clone(), (value, unit.clone()));
        }
        match measured.keys().next() {
            Some(name) => Err(format!("metric {name} is not listed in BENCHMARK.json")),
            None => Ok(out),
        }
    }
}
