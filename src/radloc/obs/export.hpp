// Exporters for the observability layer (DESIGN.md §5.10): a Prometheus
// text-exposition writer over a MetricsRegistry and JSONL structured-event
// writers for trace spans and metric snapshots. All cold-path: they walk
// the registry / drained ring under its lock and format into a stream.
// radloc_serve surfaces them via --metrics-out / --trace-out.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "radloc/obs/metrics.hpp"
#include "radloc/obs/trace.hpp"

namespace radloc::obs {

/// Prometheus text exposition (format v0.0.4): one `# TYPE` line per metric
/// name, counters/gauges as `name{labels} value`, histograms as cumulative
/// `_bucket{le="..."}` series plus `_sum` and `_count`. Label values are
/// escaped per the spec (backslash, double-quote, newline). Metrics are
/// grouped by name; within a name, rows keep registration order.
void write_prometheus(const MetricsRegistry& registry, std::ostream& os);
[[nodiscard]] std::string prometheus_text(const MetricsRegistry& registry);

/// JSONL trace export: one object per span, schema
///   {"type":"span","session":N,"seq":N,"stage":"...",
///    "start_us":F,"duration_us":F}
/// (stability pinned by tests/test_obs.cpp).
void write_trace_jsonl(std::span<const TraceEvent> events, std::ostream& os);

/// JSONL metrics snapshot: one object per instrument, schema
///   {"type":"counter|gauge|histogram","name":"...","labels":{...},...}
/// Counters carry integer "value"; gauges a double "value"; histograms
/// "count", "sum" and the exact-within-one-bucket "p50"/"p95"/"p99".
void write_metrics_jsonl(const MetricsRegistry& registry, std::ostream& os);

}  // namespace radloc::obs
