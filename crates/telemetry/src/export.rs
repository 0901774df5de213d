//! Export surfaces: Prometheus text exposition for histograms and
//! Chrome `trace_event` JSON for spans + flight-recorder events.

use crate::flight::FlightEvent;
use crate::histogram::LogHistogram;
use crate::CompletedSpan;
use std::fmt::Write as _;

/// Rewrites `name` into a legal Prometheus metric name: every byte
/// outside `[a-zA-Z0-9_]` becomes `_` (so `serve.tick.flush` exports
/// as `serve_tick_flush`).
pub fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Appends a full Prometheus histogram family — `# HELP`, `# TYPE`,
/// cumulative `_bucket{le="…"}` series over the non-empty buckets plus
/// the mandatory `+Inf` bucket, `_sum` and `_count` — for `h` under
/// `name` (already sanitized).
pub fn render_histogram(out: &mut String, name: &str, help: &str, h: &LogHistogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (upper, count) in h.nonzero_buckets() {
        cumulative += count;
        if upper.is_finite() {
            let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
        }
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Appends `# HELP`/`# TYPE` annotations plus the sample line for a
/// counter-typed metric.
pub fn render_counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The crate/category prefix of a span or event name: everything
/// before the first `.` (`"core.decide.search"` → `"core"`).
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Renders completed spans and flight events as Chrome `trace_event`
/// JSON (the "JSON Array Format" inside an object wrapper), loadable
/// in `about://tracing` or Perfetto. Spans become complete (`"X"`)
/// events with microsecond `ts`/`dur`; flight events become global
/// instant (`"i"`) events. The output is sorted by timestamp.
pub fn chrome_trace_json(spans: &[CompletedSpan], events: &[FlightEvent]) -> String {
    // (ts, rendered) pairs so the final array is time-ordered even
    // though spans complete out of start order.
    let mut rows: Vec<(u64, String)> = Vec::with_capacity(spans.len() + events.len());
    for s in spans {
        rows.push((
            s.start_us,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                escape_json(s.name),
                escape_json(category(s.name)),
                s.start_us,
                s.dur_us,
                s.tid
            ),
        ));
    }
    for e in events {
        rows.push((
            e.at_us,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"flight\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":0,\"s\":\"g\",\"args\":{{\"detail\":\"{}\"}}}}",
                escape_json(e.kind),
                e.at_us,
                escape_json(&e.detail)
            ),
        ));
    }
    rows.sort_by_key(|(ts, _)| *ts);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, (_, row)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(row);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exposition_shape() {
        let mut h = LogHistogram::new();
        for v in [0.5, 1.5, 2.5, 400.0] {
            h.record(v);
        }
        let mut out = String::new();
        render_histogram(&mut out, "test_ms", "help text", &h);
        assert!(out.contains("# TYPE test_ms histogram"));
        assert!(out.contains("test_ms_bucket{le=\"+Inf\"} 4"));
        assert!(out.contains("test_ms_count 4"));
        assert!(out.contains("test_ms_sum 404.5"));
        // Cumulative counts are non-decreasing in bucket order.
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.contains("_bucket{")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "cumulative counts must not decrease: {out}");
            last = n;
        }
    }

    #[test]
    fn trace_json_is_time_sorted() {
        let spans = vec![
            CompletedSpan {
                name: "serve.tick",
                tid: 1,
                start_us: 50,
                dur_us: 10,
            },
            CompletedSpan {
                name: "core.decide",
                tid: 1,
                start_us: 5,
                dur_us: 20,
            },
        ];
        let events = vec![FlightEvent {
            at_us: 30,
            kind: "chaos.degrade",
            detail: "board 2 \"half\"".into(),
        }];
        let json = chrome_trace_json(&spans, &events);
        let core = json.find("core.decide").unwrap();
        let chaos = json.find("chaos.degrade").unwrap();
        let serve = json.find("serve.tick").unwrap();
        assert!(core < chaos && chaos < serve, "rows sorted by ts");
        assert!(json.contains("\\\"half\\\""), "details escaped: {json}");
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }
}
