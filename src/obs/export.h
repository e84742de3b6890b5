// Scrape surfaces for the obs registry: Prometheus text exposition format
// and JSON snapshots (instruments + sampled flight-recorder spans + the
// slow-query log).
//
// Prometheus output follows the text-format contract scrapers depend on:
// one `# HELP` / `# TYPE` pair per metric family (families with multiple
// label sets emit it once), sanitized metric names ([a-zA-Z_:][a-zA-Z0-9_:]*,
// offending characters become '_'), escaped label values (backslash, quote,
// newline) and HELP text (backslash, newline), and for histograms the
// cumulative `_bucket{le="..."}` series ending in `le="+Inf"` plus `_sum`
// and `_count`.  Our histograms bound their range explicitly, so the
// bucket edges are the instrument's geometric edge vector then +Inf —
// underflow mass is inside the `le="<lo>"` bucket and overflow only in
// `+Inf`, keeping the series cumulative and `_count` equal to the `+Inf`
// bucket.
//
// scripts/check_metrics_export.py validates both formats in CI (and as a
// ctest) against the output of `examples/serving --async --stats
// --export=...` and against a live `serve_tcp --http-port` scrape.
#pragma once

#include <ostream>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace tdam::obs {

// Prometheus text exposition format (version 0.0.4).
void export_prometheus(std::ostream& out, const MetricsRegistry& registry);

// JSON snapshot: {"counters": [...], "gauges": [...], "histograms": [...]}
// plus, when a recorder is given, {"trace": {...}, "spans": [...]} with the
// per-span stage offsets/durations in nanoseconds (-1 = stage not reached),
// and when a slow log is given, {"slow": {...}} with its captured spans.
void export_json(std::ostream& out, const MetricsRegistry& registry,
                 const FlightRecorder* recorder = nullptr,
                 const SlowQueryLog* slow = nullptr);

// Flight-recorder-only JSON (what the HTTP listener serves at /traces):
// {"trace": {...}, "spans": [...], "slow": {...}} — the sampled ring, then
// the slow-query ring with its threshold/context, both oldest first.
// Either pointer may be null; its section is then an empty/absent stub.
void export_traces_json(std::ostream& out, const FlightRecorder* recorder,
                        const SlowQueryLog* slow = nullptr);

}  // namespace tdam::obs
