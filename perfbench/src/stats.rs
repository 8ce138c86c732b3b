//! Small measurement helpers: sample quantiles, FNV digests, peak RSS and
//! differences between two telemetry snapshots.

use healthmon_telemetry as tel;
use std::collections::BTreeMap;
use std::time::Instant;

/// Linearly interpolated quantile of `samples` (`q` in `[0, 1]`), the
/// same estimator as NumPy's default. Returns 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Runs `f` and returns its result with the elapsed host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Incremental FNV-1a, the digest the simulated-output check compares.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counters and histograms recorded by `healthmon-telemetry`, keyed by
/// name, so two captures can be subtracted.
#[derive(Debug, Clone, Default)]
pub struct TelCapture {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, tel::metrics::HistogramSnapshot>,
}

impl TelCapture {
    pub fn now() -> Self {
        let snap = tel::snapshot();
        TelCapture {
            counters: snap
                .counters
                .into_iter()
                .map(|c| (c.name, c.value))
                .collect(),
            histograms: snap
                .histograms
                .into_iter()
                .map(|h| (h.name.clone(), h))
                .collect(),
        }
    }

    /// What was recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &TelCapture) -> TelCapture {
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| {
                (
                    name.clone(),
                    v - earlier.counters.get(name).copied().unwrap_or(0),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let mut h = h.clone();
                if let Some(old) = earlier.histograms.get(name) {
                    h.count -= old.count;
                    h.sum -= old.sum;
                    for (index, n) in &mut h.buckets {
                        if let Some(&(_, m)) = old.buckets.iter().find(|(i, _)| i == index) {
                            *n -= m;
                        }
                    }
                    h.buckets.retain(|&(_, n)| n > 0);
                }
                (name.clone(), h)
            })
            .collect();
        TelCapture {
            counters,
            histograms,
        }
    }

    /// Adds what `other` recorded to `self`.
    pub fn merge(&mut self, other: &TelCapture) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for (name, h) in &other.histograms {
            let Some(mine) = self.histograms.get_mut(name) else {
                self.histograms.insert(name.clone(), h.clone());
                continue;
            };
            mine.count += h.count;
            mine.sum += h.sum;
            for &(index, n) in &h.buckets {
                match mine.buckets.iter_mut().find(|(i, _)| *i == index) {
                    Some((_, m)) => *m += n,
                    None => mine.buckets.push((index, n)),
                }
            }
            mine.buckets.sort_unstable();
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Sum of a nanosecond histogram's samples, in seconds.
    pub fn hist_sum_s(&self, name: &str) -> f64 {
        self.histograms
            .get(name)
            .map_or(0.0, |h| h.sum as f64 * 1e-9)
    }

    /// Quantile of a histogram, estimated from its log2 buckets.
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        self.histograms
            .get(name)
            .map_or(0.0, |h| h.quantile(q) as f64)
    }
}
