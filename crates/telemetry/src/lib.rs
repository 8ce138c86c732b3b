//! **healthmon-telemetry** — zero-dependency structured tracing, metrics,
//! and span profiling for the healthmon stack.
//!
//! The concurrent-test flow makes silent internal decisions (conductance
//! cache invalidations, ADC clipping, repair-ladder escalations) that are
//! invisible from the final verdicts. This crate is the measurement
//! substrate: every hot or decision-making path in the workspace reports
//! into a process-global registry that can be dumped as JSON lines,
//! Prometheus-style text exposition, or a human-readable end-of-run
//! report.
//!
//! # Design contract
//!
//! * **Purely observational.** Telemetry never touches RNG streams,
//!   float math, or control flow. Detection outputs, checkpoints, and
//!   digests are byte-identical whether telemetry is on or off; CI
//!   proves it (`scripts/ci.sh`, telemetry smoke).
//! * **Near-zero cost when disabled.** Every recording entry point is
//!   gated on a single relaxed atomic load ([`enabled`]); when it reads
//!   `false` nothing is computed, allocated, or locked. Call sites that
//!   would have to *derive* a value (e.g. count clipped DAC inputs)
//!   pre-gate on [`enabled`] so the derivation itself is skipped.
//! * **Thread-count invariance.** Counters are sharded per thread
//!   (cache-line-padded shards, merged by summation at snapshot time),
//!   so metrics counting deterministic work items are bit-identical
//!   under any `HEALTHMON_THREADS`. Metrics that measure *scheduling*
//!   (queue waits, chunk placement, timings) are tagged
//!   [`Stability::Volatile`] and excluded from invariance comparisons.
//!
//! # Example
//!
//! ```
//! use healthmon_telemetry as tel;
//!
//! static CALLS: tel::Counter = tel::Counter::new("example.calls", tel::Stability::Stable);
//!
//! tel::set_enabled(true);
//! {
//!     let _span = tel::span("example");
//!     CALLS.inc();
//! }
//! let snap = tel::snapshot();
//! assert_eq!(snap.counters[0].value, 1);
//! assert_eq!(snap.spans[0].calls, 1);
//! tel::reset();
//! tel::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod log;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod timeseries;

pub use export::{parse_stream, render_frame, MetricsServer, SnapshotFrame};
pub use log::{set_verbosity, verbosity, Level};
pub use metrics::{
    snapshot, timed, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, MetricsSnapshot, Stability, Timed,
};
pub use sink::{parse_jsonl, render_jsonl, render_prometheus, render_report};
pub use span::{record_event, span, EventSnapshot, Span, SpanSnapshot};
pub use timeseries::{HealthTimeline, Series, TimelinePoint, TIMELINE_CAPACITY};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Master switch. All recording paths check this first; default off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns whether telemetry recording is enabled.
///
/// A single relaxed load — cheap enough for hot paths. Call sites that
/// must compute a value before recording it should gate the computation
/// on this.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Wall-clock nanoseconds since `t0`, saturating at `u64::MAX`: the one
/// clock reading behind [`timed`] guards and span timings.
pub(crate) fn nanos_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Turns telemetry recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    if on {
        span::epoch(); // pin the time origin at enable, not at first span
    }
}

/// Enables telemetry if the `HEALTHMON_TRACE` environment variable is set
/// to anything other than `0`, `false`, or the empty string. Returns the
/// resulting enabled state.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("HEALTHMON_TRACE") {
        if !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false") {
            set_enabled(true);
        }
    }
    enabled()
}

/// Clears all recorded state: metric values, registrations, span stats,
/// and the event ring buffer. The enabled flag is left unchanged.
///
/// Intended for test harnesses and A/B benches that run several
/// measurement windows in one process. Not safe to call concurrently
/// with active recording — callers own that exclusion.
pub fn reset() {
    metrics::reset_registry();
    span::reset_spans();
}

#[cfg(test)]
pub(crate) mod testlock {
    //! Telemetry state is process-global; unit tests serialize on this.
    use std::sync::{Mutex, MutexGuard, OnceLock};

    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();

    /// Takes the global test lock, resets telemetry, and enables it.
    pub fn exclusive() -> MutexGuard<'static, ()> {
        let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        crate::reset();
        crate::set_enabled(true);
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_records_nothing() {
        let _g = testlock::exclusive();
        set_enabled(false);
        static C: Counter = Counter::new("lib.disabled", Stability::Stable);
        C.add(5);
        let _s = span("lib.disabled.span");
        drop(_s);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
        set_enabled(true);
    }

    #[test]
    fn env_init_parses_truthy_values() {
        let _g = testlock::exclusive();
        set_enabled(false);
        // No env var set in the test environment: stays disabled.
        std::env::remove_var("HEALTHMON_TRACE");
        assert!(!init_from_env());
        std::env::set_var("HEALTHMON_TRACE", "0");
        assert!(!init_from_env());
        std::env::set_var("HEALTHMON_TRACE", "1");
        assert!(init_from_env());
        std::env::remove_var("HEALTHMON_TRACE");
        set_enabled(false);
    }

    #[test]
    fn reset_clears_registrations() {
        let _g = testlock::exclusive();
        static C: Counter = Counter::new("lib.reset", Stability::Stable);
        C.add(3);
        assert_eq!(snapshot().counters.len(), 1);
        reset();
        assert!(snapshot().counters.is_empty());
        // Re-touch re-registers with a fresh value.
        C.add(2);
        let snap = snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, 2);
    }
}
