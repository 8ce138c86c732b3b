//! Output sinks for a [`MetricsSnapshot`]: JSON lines (via
//! `healthmon-serdes`), Prometheus-style text exposition, and a
//! human-readable end-of-run report with a rendered span tree.
//!
//! The JSONL format is self-describing, one object per line, each with
//! a `kind` tag (`counter`/`gauge`/`histogram`/`span`/`event`) and a
//! `stable` flag. CI's thread-invariance check byte-compares only the
//! `"stable":true` lines; [`parse_jsonl`] round-trips the whole file.

use crate::metrics::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, N_BUCKETS,
};
use crate::span::{EventSnapshot, SpanSnapshot};
use healthmon_serdes::{parse, Json, JsonError};
use std::fmt::Write as _;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(v: u64) -> Json {
    // serdes numbers are f64: exact for integers below 2^53, which every
    // counter in this workspace stays far under. Clamp rather than lose
    // precision silently if one ever overflows.
    Json::Number(v.min(1 << 53) as f64)
}

fn counter_line(c: &CounterSnapshot) -> Json {
    obj(vec![
        ("kind", Json::String("counter".into())),
        ("name", Json::String(c.name.clone())),
        ("stable", Json::Bool(c.stable)),
        ("value", num(c.value)),
    ])
}

fn gauge_line(g: &GaugeSnapshot) -> Json {
    obj(vec![
        ("kind", Json::String("gauge".into())),
        ("name", Json::String(g.name.clone())),
        ("stable", Json::Bool(g.stable)),
        ("value", Json::Number(g.value)),
    ])
}

fn histogram_line(h: &HistogramSnapshot) -> Json {
    let buckets = h
        .buckets
        .iter()
        .map(|&(i, n)| Json::Array(vec![num(u64::from(i)), num(n)]))
        .collect();
    obj(vec![
        ("kind", Json::String("histogram".into())),
        ("name", Json::String(h.name.clone())),
        ("stable", Json::Bool(h.stable)),
        ("count", num(h.count)),
        ("sum", num(h.sum)),
        ("buckets", Json::Array(buckets)),
    ])
}

fn span_line(s: &SpanSnapshot) -> Json {
    obj(vec![
        ("kind", Json::String("span".into())),
        ("name", Json::String(s.path.clone())),
        ("stable", Json::Bool(false)),
        ("calls", num(s.calls)),
        ("total_ns", num(s.total_ns)),
        ("self_ns", num(s.self_ns)),
        ("max_ns", num(s.max_ns)),
    ])
}

fn event_line(e: &EventSnapshot) -> Json {
    obj(vec![
        ("kind", Json::String("event".into())),
        ("name", Json::String(e.name.to_string())),
        ("stable", Json::Bool(false)),
        ("seq", num(e.seq)),
        ("t_ns", num(e.t_ns)),
        ("detail", Json::String(e.detail.clone())),
    ])
}

/// Renders a snapshot as JSON lines: one object per metric, span path,
/// and event, terminated by `\n`. Deterministic: metrics sorted by
/// name, spans by path, events by recording order.
pub fn render_jsonl(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        out.push_str(&counter_line(c).render());
        out.push('\n');
    }
    for g in &snap.gauges {
        out.push_str(&gauge_line(g).render());
        out.push('\n');
    }
    for h in &snap.histograms {
        out.push_str(&histogram_line(h).render());
        out.push('\n');
    }
    for s in &snap.spans {
        out.push_str(&span_line(s).render());
        out.push('\n');
    }
    for e in &snap.events {
        out.push_str(&event_line(e).render());
        out.push('\n');
    }
    out
}

fn parse_u64(v: &Json) -> Result<u64, JsonError> {
    let n = v.as_number()?;
    if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
        return Err(JsonError::invalid(format!("expected a u64 count, got {n}")));
    }
    Ok(n as u64)
}

/// Static string table for event names parsed back from JSONL. Event
/// names in live recording are `&'static str`; a parsed file can hold
/// arbitrary names, so they are leaked once per distinct name (bounded
/// by the event-name vocabulary, which is tiny).
fn intern(name: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::Mutex;
    static TABLE: Mutex<Option<HashSet<&'static str>>> = Mutex::new(None);
    let mut table = TABLE.lock().unwrap();
    let set = table.get_or_insert_with(HashSet::new);
    match set.get(name) {
        Some(s) => s,
        None => {
            let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

/// Parses JSONL text produced by [`render_jsonl`] back into a
/// [`MetricsSnapshot`].
///
/// # Errors
///
/// Returns a [`JsonError`] if any line is not valid JSON or does not
/// match the telemetry line schema.
pub fn parse_jsonl(text: &str) -> Result<MetricsSnapshot, JsonError> {
    let mut snap = MetricsSnapshot::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line)?;
        let kind = v.field("kind")?.as_str()?.to_string();
        let name = v.field("name")?.as_str()?.to_string();
        let stable = v.field("stable")?.as_bool()?;
        match kind.as_str() {
            "counter" => snap.counters.push(CounterSnapshot {
                name,
                value: parse_u64(v.field("value")?)?,
                stable,
            }),
            "gauge" => snap.gauges.push(GaugeSnapshot {
                name,
                value: v.field("value")?.as_number()?,
                stable,
            }),
            "histogram" => {
                let mut buckets = Vec::new();
                for b in v.field("buckets")?.as_array()? {
                    let pair = b.as_array()?;
                    if pair.len() != 2 {
                        return Err(JsonError::invalid("histogram bucket is not a pair"));
                    }
                    let index = parse_u64(&pair[0])?;
                    if index >= N_BUCKETS as u64 {
                        return Err(JsonError::invalid(format!(
                            "histogram bucket index {index} is above {}",
                            N_BUCKETS - 1
                        )));
                    }
                    buckets.push((index as u32, parse_u64(&pair[1])?));
                }
                snap.histograms.push(HistogramSnapshot {
                    name,
                    count: parse_u64(v.field("count")?)?,
                    sum: parse_u64(v.field("sum")?)?,
                    buckets,
                    stable,
                });
            }
            "span" => snap.spans.push(SpanSnapshot {
                path: name,
                calls: parse_u64(v.field("calls")?)?,
                total_ns: parse_u64(v.field("total_ns")?)?,
                self_ns: parse_u64(v.field("self_ns")?)?,
                max_ns: parse_u64(v.field("max_ns")?)?,
            }),
            "event" => snap.events.push(EventSnapshot {
                seq: parse_u64(v.field("seq")?)?,
                t_ns: parse_u64(v.field("t_ns")?)?,
                name: intern(&name),
                detail: v.field("detail")?.as_str()?.to_string(),
            }),
            other => {
                return Err(JsonError::invalid(format!("unknown telemetry line kind `{other}`")))
            }
        }
    }
    Ok(snap)
}

/// Maps a metric name to a Prometheus-legal identifier.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("healthmon_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot in Prometheus text exposition format (counters,
/// gauges, and histograms; spans and events have no Prometheus shape).
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let n = prom_name(&c.name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {}", c.value);
    }
    for g in &snap.gauges {
        let n = prom_name(&g.name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", g.value);
    }
    for h in &snap.histograms {
        let n = prom_name(&h.name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for &(i, count) in &h.buckets {
            cumulative += count;
            let upper = HistogramSnapshot::bucket_upper(i);
            let _ = writeln!(out, "{n}_bucket{{le=\"{upper}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
        // Pre-computed quantile gauges so dashboards need no PromQL
        // histogram_quantile over the coarse log2 buckets.
        for (q, suffix) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            let _ = writeln!(out, "# TYPE {n}_{suffix} gauge");
            let _ = writeln!(out, "{n}_{suffix} {}", h.quantile(q));
        }
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the human-readable end-of-run report: metric tables, the
/// span tree (indentation = nesting), and the tail of the event ring.
pub fn render_report(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("== healthmon telemetry ==\n");
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for c in &snap.counters {
            let tag = if c.stable { "" } else { "  (volatile)" };
            let _ = writeln!(out, "  {:<44} {:>14}{tag}", c.name, c.value);
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for g in &snap.gauges {
            let tag = if g.stable { "" } else { "  (volatile)" };
            let _ = writeln!(out, "  {:<44} {:>14.6}{tag}", g.name, g.value);
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms:\n");
        for h in &snap.histograms {
            let mean = if h.count > 0 { h.sum as f64 / h.count as f64 } else { 0.0 };
            let _ = writeln!(
                out,
                "  {:<44} count={} sum={} mean={:.1}",
                h.name, h.count, h.sum, mean
            );
            // Quantile estimates from the log2 buckets replace the raw
            // bucket dump: three numbers an operator can read at a
            // glance instead of a page of bucket edges.
            let _ = writeln!(
                out,
                "      p50={} p95={} p99={}",
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99),
            );
        }
    }
    if !snap.spans.is_empty() {
        out.push_str("spans (indent = nesting):\n");
        for s in &snap.spans {
            let depth = s.path.matches('/').count();
            let leaf = s.path.rsplit('/').next().unwrap_or(&s.path);
            let indent = "  ".repeat(depth + 1);
            let _ = writeln!(
                out,
                "{indent}{:<width$} calls={:<8} total={:<10} self={:<10} max={}",
                leaf,
                s.calls,
                fmt_ns(s.total_ns),
                fmt_ns(s.self_ns),
                fmt_ns(s.max_ns),
                width = 32usize.saturating_sub(2 * depth),
            );
        }
    }
    if !snap.events.is_empty() {
        let tail = 32;
        let start = snap.events.len().saturating_sub(tail);
        let _ = writeln!(
            out,
            "events (last {} of {}):",
            snap.events.len() - start,
            snap.events.len()
        );
        for e in &snap.events[start..] {
            let _ = writeln!(out, "  +{:<12} {} {}", fmt_ns(e.t_ns), e.name, e.detail);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Gauge, Histogram, Stability};
    use crate::testlock;

    fn sample_snapshot() -> MetricsSnapshot {
        static C: Counter = Counter::new("sink.calls", Stability::Stable);
        static G: Gauge = Gauge::new("sink.ratio", Stability::Volatile);
        static H: Histogram = Histogram::new("sink.wait_ns", Stability::Volatile);
        C.add(42);
        G.set(0.75);
        H.record(0);
        H.record(5);
        H.record(1000);
        {
            let _outer = crate::span("run");
            let _inner = crate::span("step");
        }
        crate::record_event("sink.event", "something happened");
        crate::snapshot()
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let _g = testlock::exclusive();
        let snap = sample_snapshot();
        let text = render_jsonl(&snap);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(render_jsonl(&back), text);
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.histograms, snap.histograms);
        assert_eq!(back.spans, snap.spans);
        assert_eq!(back.events, snap.events);
    }

    #[test]
    fn jsonl_lines_carry_stability() {
        let _g = testlock::exclusive();
        let snap = sample_snapshot();
        let text = render_jsonl(&snap);
        assert!(text.lines().any(|l| l.contains("\"stable\":true")));
        assert!(text.lines().any(|l| l.contains("\"stable\":false")));
        // Every line parses standalone.
        for line in text.lines() {
            parse(line).unwrap();
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let _g = testlock::exclusive();
        let snap = sample_snapshot();
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE healthmon_sink_calls counter"));
        assert!(text.contains("healthmon_sink_calls 42"));
        assert!(text.contains("healthmon_sink_wait_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("healthmon_sink_wait_ns_count 3"));
        // Per-histogram quantile gauges ride along for dashboards.
        assert!(text.contains("# TYPE healthmon_sink_wait_ns_p95 gauge"));
        assert!(text.contains("healthmon_sink_wait_ns_p50 "));
        assert!(text.contains("healthmon_sink_wait_ns_p99 "));
    }

    #[test]
    fn report_renders_span_tree() {
        let _g = testlock::exclusive();
        let snap = sample_snapshot();
        let text = render_report(&snap);
        assert!(text.contains("== healthmon telemetry =="));
        assert!(text.contains("sink.calls"));
        assert!(text.contains("p50=") && text.contains("p99="));
        assert!(text.contains("run"));
        assert!(text.contains("step"));
        assert!(text.contains("sink.event something happened"));
    }

    #[test]
    fn parse_rejects_out_of_range_bucket_index() {
        let line = |index: &str| {
            format!(
                "{{\"kind\":\"histogram\",\"name\":\"h\",\"stable\":true,\
                 \"count\":1,\"sum\":1,\"buckets\":[[{index},1]]}}\n"
            )
        };
        assert_eq!(parse_jsonl(&line("64")).unwrap().histograms[0].buckets, vec![(64, 1)]);
        // 2^32 + 3 used to truncate to bucket 3.
        for index in ["65", "4294967299", "9007199254740992"] {
            let err = parse_jsonl(&line(index)).unwrap_err();
            assert!(err.to_string().contains("bucket index"), "{index}: {err}");
        }
    }

    #[test]
    fn parse_rejects_unknown_kind() {
        let bad = "{\"kind\":\"mystery\",\"name\":\"x\",\"stable\":true}\n";
        assert!(parse_jsonl(bad).is_err());
    }
}
