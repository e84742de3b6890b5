// Layer 7 observability: registry semantics, Prometheus text-format
// conformance, JSON snapshot shape, and flight-recorder sampling.
// (The multi-threaded registry hammer lives in test_runtime_obs.cpp so the
// TSan job's Runtime* filter picks it up.)
#include "obs/export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace tdam::obs {
namespace {

// --- registry semantics ---

TEST(ObsRegistry, InstrumentsAreIdempotentByNameAndLabels) {
  MetricsRegistry reg;
  auto& a = reg.counter("requests_total", "requests");
  a.add(2.0);
  auto& b = reg.counter("requests_total", "requests");
  EXPECT_EQ(&a, &b);  // same identity -> same instrument
  EXPECT_EQ(b.value(), 2.0);
  // Different labels are a different instrument under the same name.
  auto& c = reg.counter("requests_total", "requests", {{"code", "500"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(c.value(), 0.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistry, KindAndGeometryMismatchesThrow) {
  MetricsRegistry reg;
  reg.counter("x", "a counter");
  EXPECT_THROW(reg.gauge("x", "now a gauge"), std::invalid_argument);
  EXPECT_THROW(reg.exponential_histogram("x", "now a histogram", 1e-3, 1.0, 4),
               std::invalid_argument);
  reg.exponential_histogram("h", "a histogram", 1e-3, 1.0, 4);
  EXPECT_THROW(reg.exponential_histogram("h", "different bins", 1e-3, 1.0, 8),
               std::invalid_argument);
  EXPECT_THROW(reg.exponential_histogram("h", "different range", 1e-3, 2.0, 4),
               std::invalid_argument);
  EXPECT_THROW(reg.exponential_histogram("h", "different lo", 1e-4, 1.0, 4),
               std::invalid_argument);
  EXPECT_NO_THROW(
      reg.exponential_histogram("h", "same geometry", 1e-3, 1.0, 4));
  // Geometric edges need a positive lower edge.
  EXPECT_THROW(reg.exponential_histogram("z", "zero lo", 0.0, 1.0, 4),
               std::invalid_argument);
}

TEST(ObsRegistry, ExponentialHistogramEdgesAreGeometric) {
  MetricsRegistry reg;
  auto& h = reg.exponential_histogram("lat", "", 1e-6, 1.0, 12);
  EXPECT_EQ(h.kind(), HistogramKind::kExponential);
  const auto& edges = h.edges();
  ASSERT_EQ(edges.size(), 13u);
  EXPECT_DOUBLE_EQ(edges.front(), 1e-6);
  EXPECT_DOUBLE_EQ(edges.back(), 1.0);
  const double growth = edges[1] / edges[0];
  EXPECT_GT(growth, 1.0);
  for (std::size_t i = 0; i + 1 < edges.size(); ++i)
    EXPECT_NEAR(edges[i + 1] / edges[i], growth, 1e-9 * growth);

  // An observation lands in the bin whose [edge_i, edge_{i+1}) brackets it.
  h.observe(2e-6);
  auto snap = h.snapshot();
  EXPECT_EQ(snap.kind, HistogramKind::kExponential);
  ASSERT_EQ(snap.counts.size(), 12u);
  for (std::size_t b = 0; b < snap.counts.size(); ++b) {
    const bool brackets = snap.edges[b] <= 2e-6 && 2e-6 < snap.edges[b + 1];
    EXPECT_EQ(snap.counts[b], brackets ? 1u : 0u) << "bin " << b;
  }

  // Below lo is underflow; at/above hi is overflow.
  h.observe(5e-7);
  h.observe(1.0);
  snap = h.snapshot();
  EXPECT_EQ(snap.underflow, 1u);
  EXPECT_EQ(snap.overflow, 1u);
  EXPECT_EQ(snap.total(), 3u);
  // Quantile clamps under/overflow ranks to lo/hi, as documented.
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1e-6);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1.0);
}

TEST(ObsRegistry, ExponentialHistogramResolvesSamplesDecadesApart) {
  // The motivating property: microsecond and near-second samples land in
  // distinct, well-separated bins of ONE instrument — a uniform grid over
  // the same range would smear all the fast samples into its first bin.
  MetricsRegistry reg;
  auto& h = reg.exponential_histogram("wide", "", 1e-6, 10.0, 64);
  for (int i = 0; i < 100; ++i) h.observe(5e-6);
  for (int i = 0; i < 100; ++i) h.observe(0.5);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.underflow, 0u);
  EXPECT_EQ(snap.overflow, 0u);
  const double p25 = snap.quantile(0.25);
  const double p75 = snap.quantile(0.75);
  EXPECT_LT(p25, 1e-4);  // fast mode stays resolved near 5 µs
  EXPECT_GT(p75, 0.05);  // slow mode stays resolved near 500 ms
}

TEST(ObsRegistry, CounterSumsStripesAndGaugeTracksMax) {
  MetricsRegistry reg;
  auto& c = reg.counter("c", "");
  for (int i = 0; i < 100; ++i) c.add(0.5);
  EXPECT_DOUBLE_EQ(c.value(), 50.0);
  auto& g = reg.gauge("g", "");
  g.set(3.0);
  g.max(1.0);  // lower: no-op
  EXPECT_EQ(g.value(), 3.0);
  g.max(7.0);
  EXPECT_EQ(g.value(), 7.0);
  g.add(-2.0);
  EXPECT_EQ(g.value(), 5.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0.0);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsRegistry, HistogramSnapshotMatchesUtilQuantileContract) {
  MetricsRegistry reg;
  // Octave edges 1, 2, 4, ..., 1024; one sample in the middle of each bin.
  auto& h = reg.exponential_histogram("h", "", 1.0, 1024.0, 10);
  for (int i = 0; i < 10; ++i) h.observe(1.5 * (1 << i));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total(), 10u);
  // Uniform mass within a bin: rank 5 closes bin 4 at its upper edge 32,
  // rank 2.5 sits halfway through bin [4, 8).
  EXPECT_NEAR(snap.quantile(0.5), 32.0, 1e-9);
  EXPECT_NEAR(snap.quantile(0.25), 6.0, 1e-9);
  // Clamping: under/overflow ranks resolve to lo/hi.
  h.observe(0.5);
  h.observe(5000.0);
  const auto clamped = h.snapshot();
  EXPECT_EQ(clamped.underflow, 1u);
  EXPECT_EQ(clamped.overflow, 1u);
  EXPECT_EQ(clamped.quantile(0.0), 1.0);
  EXPECT_EQ(clamped.quantile(1.0), 1024.0);
  EXPECT_THROW(clamped.quantile(1.5), std::invalid_argument);
  // Empty histograms quantile to NaN, like util::Histogram.
  const auto empty = reg.exponential_histogram("e", "", 1.0, 2.0, 2).snapshot();
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
}

// --- Prometheus text format ---

std::string prom(const MetricsRegistry& reg) {
  std::ostringstream out;
  export_prometheus(out, reg);
  return out.str();
}

TEST(ObsExport, PrometheusEmitsHelpTypeAndValues) {
  MetricsRegistry reg;
  reg.counter("req_total", "Requests served").add(3.0);
  reg.gauge("depth", "Queue depth").set(7.0);
  const auto text = prom(reg);
  EXPECT_NE(text.find("# HELP req_total Requests served\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("\nreq_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("\ndepth 7\n"), std::string::npos);
}

TEST(ObsExport, PrometheusSanitizesNamesAndEscapesLabels) {
  MetricsRegistry reg;
  reg.counter("bad-name.total", "has \"quotes\" and a \\ backslash",
              {{"path", "a\\b\"c\nd"}})
      .add(1.0);
  const auto text = prom(reg);
  // '-' and '.' are not legal in metric names: both become '_'.
  EXPECT_NE(text.find("bad_name_total"), std::string::npos);
  EXPECT_EQ(text.find("bad-name"), std::string::npos);
  // Label values escape backslash, quote and newline.
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
  // HELP escapes backslash and newline (quotes are legal there).
  EXPECT_NE(text.find("# HELP bad_name_total has \"quotes\" and a \\\\ "
                      "backslash\n"),
            std::string::npos);
}

TEST(ObsExport, PrometheusHistogramBucketsAreCumulativeWithInf) {
  MetricsRegistry reg;
  auto& h = reg.exponential_histogram("lat", "latency", 1.0, 8.0, 3);
  h.observe(0.5);  // underflow -> first (le=lo) bucket
  h.observe(1.5);
  h.observe(3.0);
  h.observe(9.0);  // overflow -> only +Inf
  const auto text = prom(reg);
  EXPECT_NE(text.find("# TYPE lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"8\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  // _count equals the +Inf bucket; _sum is the raw sum of observations.
  EXPECT_NE(text.find("lat_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 14\n"), std::string::npos);
}

TEST(ObsExport, PrometheusEmitsHeaderOncePerLabeledFamily) {
  MetricsRegistry reg;
  reg.exponential_histogram("stage_seconds", "stage", 0.01, 1.0, 2,
                            {{"stage", "scan"}})
      .observe(0.1);
  reg.exponential_histogram("stage_seconds", "stage", 0.01, 1.0, 2,
                            {{"stage", "merge"}})
      .observe(0.2);
  const auto text = prom(reg);
  // One HELP/TYPE pair even though two label sets share the family...
  std::size_t headers = 0;
  for (std::size_t at = text.find("# TYPE stage_seconds");
       at != std::string::npos;
       at = text.find("# TYPE stage_seconds", at + 1))
    ++headers;
  EXPECT_EQ(headers, 1u);
  // ...and both label sets appear, le composed after the static labels.
  EXPECT_NE(text.find("stage_seconds_bucket{stage=\"scan\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("stage_seconds_bucket{stage=\"merge\",le=\"+Inf\"} 1"),
            std::string::npos);
}

TEST(ObsExport, ExponentialHistogramExportsGeometricBuckets) {
  MetricsRegistry reg;
  auto& h = reg.exponential_histogram("lat_seconds", "latency", 0.001, 1.0, 3);
  h.observe(0.5);
  const auto text = prom(reg);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  // The first le is the exact lo edge; cumulative count reaches 1 at +Inf.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.001\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 1\n"), std::string::npos);

  std::ostringstream out;
  export_json(out, reg);
  const auto json = out.str();
  // The JSON carries the layout explicitly: kind plus the full edge vector
  // (leading edge exact-equal to lo), so scrapers never re-derive geometry.
  EXPECT_NE(json.find("\"kind\":\"exponential\",\"edges\":[0.001,"),
            std::string::npos);
}

// --- JSON snapshot ---

TEST(ObsExport, JsonRoundTripsInstrumentsAndSpans) {
  MetricsRegistry reg;
  reg.counter("c", "counter", {{"k", "v"}}).add(2.0);
  reg.gauge("g", "gauge").set(1.5);
  reg.exponential_histogram("h", "hist", 0.25, 4.0, 2).observe(0.5);
  FlightRecorder rec({.mode = TraceMode::kFull, .capacity = 4});
  SpanRecord span;
  span.trace_id = rec.next_trace_id();
  span.enqueue_ns = 100;
  span.admit_ns = 10;
  span.fulfill_ns = 50;
  span.status = 0;
  rec.record(span);
  std::ostringstream out;
  export_json(out, reg, &rec);
  const auto text = out.str();
  EXPECT_NE(text.find("\"counters\":[{\"name\":\"c\",\"labels\":"
                      "{\"k\":\"v\"},\"value\":2}]"),
            std::string::npos);
  EXPECT_NE(text.find("\"gauges\":[{\"name\":\"g\",\"labels\":{},"
                      "\"value\":1.5}]"),
            std::string::npos);
  EXPECT_NE(text.find("\"counts\":[1,0]"), std::string::npos);
  EXPECT_NE(text.find("\"trace\":{\"mode\":\"full\",\"sample_every\":16,"
                      "\"capacity\":4,\"recorded\":1}"),
            std::string::npos);
  EXPECT_NE(text.find("\"spans\":[{\"trace_id\":1,\"status\":0,"
                      "\"enqueue_ns\":100,\"admit_ns\":10"),
            std::string::npos);
  // Balanced braces/brackets — the cheap structural sanity check.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
}

// --- flight recorder ---

SpanRecord make_span(std::uint64_t id) {
  SpanRecord s;
  s.trace_id = id;
  s.enqueue_ns = static_cast<std::int64_t>(id) * 10;
  s.status = 0;
  return s;
}

TEST(ObsFlightRecorder, SamplingIsDeterministicByTraceId) {
  FlightRecorder rec({.mode = TraceMode::kSampled, .sample_every = 4,
                      .capacity = 64});
  for (std::uint64_t id = 1; id <= 32; ++id) rec.record(make_span(id));
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 8u);  // exactly the multiples of 4
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].trace_id, 4u * (i + 1));
  EXPECT_EQ(rec.recorded(), 8u);
}

TEST(ObsFlightRecorder, RingOverwritesOldestFirst) {
  FlightRecorder rec({.mode = TraceMode::kFull, .capacity = 4});
  for (std::uint64_t id = 1; id <= 10; ++id) rec.record(make_span(id));
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(spans[i].trace_id, 7u + i);  // oldest retained span first
  EXPECT_EQ(rec.recorded(), 10u);  // lifetime count survives overwrites
  rec.clear();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(ObsFlightRecorder, ModesGateRecording) {
  FlightRecorder off({.mode = TraceMode::kOff});
  off.record(make_span(16));
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.snapshot().empty());
  FlightRecorder full({.mode = TraceMode::kFull, .capacity = 8});
  // Untraced spans (no enqueue stamp) and id 0 are dropped even in kFull.
  SpanRecord untraced;
  untraced.trace_id = 5;
  full.record(untraced);
  full.record(make_span(0));
  EXPECT_TRUE(full.snapshot().empty());
  full.record(make_span(1));
  EXPECT_EQ(full.snapshot().size(), 1u);
}

TEST(ObsFlightRecorder, FromEnvParsesModeStrideAndCapacity) {
#ifdef TDAM_TRACE_DISABLED
  GTEST_SKIP() << "tracing compiled out";
#else
  ::setenv("TDAM_TRACE", "full", 1);
  ::setenv("TDAM_TRACE_SAMPLE", "8", 1);
  ::setenv("TDAM_TRACE_CAPACITY", "32", 1);
  const auto cfg = TraceConfig::from_env();
  EXPECT_EQ(cfg.mode, TraceMode::kFull);
  EXPECT_EQ(cfg.sample_every, 8);
  EXPECT_EQ(cfg.capacity, 32u);
  // Malformed values fall back to defaults (and warn once on stderr).
  ::setenv("TDAM_TRACE", "sideways", 1);
  ::setenv("TDAM_TRACE_SAMPLE", "-3", 1);
  ::setenv("TDAM_TRACE_CAPACITY", "lots", 1);
  const auto fallback = TraceConfig::from_env();
  EXPECT_EQ(fallback.mode, TraceMode::kSampled);
  EXPECT_EQ(fallback.sample_every, 16);
  EXPECT_EQ(fallback.capacity, 1024u);
  ::setenv("TDAM_TRACE", "off", 1);
  EXPECT_EQ(TraceConfig::from_env().mode, TraceMode::kOff);
  ::unsetenv("TDAM_TRACE");
  ::unsetenv("TDAM_TRACE_SAMPLE");
  ::unsetenv("TDAM_TRACE_CAPACITY");
#endif
}

}  // namespace
}  // namespace tdam::obs
