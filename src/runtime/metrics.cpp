#include "runtime/metrics.h"

#include <cmath>

#include "util/table.h"

namespace tdam::runtime {

namespace {
// Lower edge of every exponential latency histogram: 1 µs.  Faster samples
// count as underflow (folded into the first Prometheus bucket), which is
// exactly the "effectively instant" population.
constexpr double kLatencyLo = 1e-6;
constexpr double kBatchBinsPerOctave = 8.0;
}  // namespace

ServingMetrics::ServingMetrics(double latency_hi, std::size_t bins,
                               std::size_t batch_hi)
    : latency_hi_(latency_hi) {
  queries_ = &registry_.counter("tdam_serving_queries_total",
                                "Queries completed by the engine");
  batches_ = &registry_.counter("tdam_serving_batches_total",
                                "Micro-batches dispatched to the engine");
  wall_seconds_ = &registry_.counter(
      "tdam_serving_wall_seconds_total",
      "Cumulative batch wall time (submit to last result)");
  rejected_ = &registry_.counter("tdam_serving_rejected_total",
                                 "Queries bounced by admission control");
  shed_ = &registry_.counter("tdam_serving_shed_total",
                             "Queued queries evicted by shed-oldest");
  expired_ = &registry_.counter("tdam_serving_deadline_expired_total",
                                "Queries whose deadline passed before dispatch");
  modeled_latency_ = &registry_.counter(
      "tdam_serving_modeled_latency_seconds_total",
      "Summed modeled TD-AM hardware latency");
  modeled_energy_ = &registry_.counter(
      "tdam_serving_modeled_energy_joules_total",
      "Summed modeled TD-AM hardware energy");
  queue_depth_ = &registry_.gauge("tdam_serving_queue_depth",
                                  "Queries waiting in the admission queue");
  peak_queue_depth_ =
      &registry_.gauge("tdam_serving_queue_depth_peak",
                       "Admission-queue high-water mark since reset");
  resident_index_bytes_ =
      &registry_.gauge("tdam_serving_resident_index_bytes",
                       "Resident bytes of the served (packed) index");
  segments_ = &registry_.gauge("tdam_serving_segments",
                               "Segments in the published index snapshot");
  delta_rows_ = &registry_.gauge("tdam_serving_delta_rows",
                                 "Rows in unsealed delta segments");
  compactions_ = &registry_.counter("tdam_serving_compactions_total",
                                    "Segment compaction merges completed");
  compacted_rows_ = &registry_.counter(
      "tdam_serving_compacted_rows_total",
      "Rows rewritten into merged segments by compaction");
  compaction_ = &registry_.exponential_histogram(
      "tdam_serving_compaction_seconds", "Per-merge compaction duration",
      kLatencyLo, 1.0, bins);
  wall_ = &registry_.exponential_histogram(
      "tdam_serving_wall_latency_seconds", "Per-query wall latency",
      kLatencyLo, latency_hi, bins);
  batch_sizes_ = &registry_.exponential_histogram(
      "tdam_serving_batch_size", "Queries per micro-batch", 1.0,
      static_cast<double>(batch_hi),
      static_cast<std::size_t>(std::ceil(
          kBatchBinsPerOctave * std::log2(static_cast<double>(batch_hi)))));
  const char* stage_help = "Per-query serving-stage duration";
  queue_wait_ = &registry_.exponential_histogram(
      "tdam_serving_stage_seconds", stage_help, kLatencyLo, latency_hi, bins,
      {{"stage", "queue_wait"}});
  batch_wait_ = &registry_.exponential_histogram(
      "tdam_serving_stage_seconds", stage_help, kLatencyLo, latency_hi, bins,
      {{"stage", "batch_wait"}});
  scan_ = &registry_.exponential_histogram(
      "tdam_serving_stage_seconds", stage_help, kLatencyLo, latency_hi, bins,
      {{"stage", "scan"}});
  merge_ = &registry_.exponential_histogram(
      "tdam_serving_stage_seconds", stage_help, kLatencyLo, latency_hi, bins,
      {{"stage", "merge"}});
}

void ServingMetrics::record_query_wall(double seconds) {
  wall_->observe(seconds);
}

void ServingMetrics::record_stage_times(const StageTimings& stages) {
  if (stages.queue_wait >= 0.0) queue_wait_->observe(stages.queue_wait);
  if (stages.batch_wait >= 0.0) batch_wait_->observe(stages.batch_wait);
  if (stages.scan >= 0.0) scan_->observe(stages.scan);
  if (stages.merge >= 0.0) merge_->observe(stages.merge);
}

void ServingMetrics::record_batch(const BatchStats& batch) {
  std::lock_guard<std::mutex> lock(batch_mutex_);
  batches_->add(1.0);
  queries_->add(static_cast<double>(batch.queries));
  wall_seconds_->add(batch.wall_seconds);
  modeled_latency_->add(batch.modeled_latency);
  modeled_energy_->add(batch.modeled_energy);
  batch_sizes_->observe(static_cast<double>(batch.queries));
}

void ServingMetrics::record_rejected() { rejected_->add(1.0); }

void ServingMetrics::record_shed() { shed_->add(1.0); }

void ServingMetrics::record_expired() { expired_->add(1.0); }

void ServingMetrics::set_queue_depth(std::size_t depth) {
  const auto d = static_cast<double>(depth);
  queue_depth_->set(d);
  peak_queue_depth_->max(d);
}

void ServingMetrics::set_resident_index_bytes(std::size_t bytes) {
  resident_index_bytes_->set(static_cast<double>(bytes));
}

void ServingMetrics::set_segment_stats(std::size_t segments,
                                       std::size_t delta_rows) {
  segments_->set(static_cast<double>(segments));
  delta_rows_->set(static_cast<double>(delta_rows));
}

void ServingMetrics::record_compaction(double seconds, std::size_t rows) {
  compactions_->add(1.0);
  compacted_rows_->add(static_cast<double>(rows));
  compaction_->observe(seconds);
}

void ServingMetrics::ensure_shards(int shards) {
  std::lock_guard<std::mutex> lock(batch_mutex_);
  // Modest bucket count per shard: the per-shard families exist to expose
  // tail *shape* (compaction's effect), not to re-derive exact quantiles,
  // and a 32-shard index would otherwise dominate the scrape.
  constexpr std::size_t kShardBins = 128;
  for (int s = static_cast<int>(shard_scan_.size()); s < shards; ++s) {
    const std::string label = std::to_string(s);
    shard_scan_.push_back(&registry_.exponential_histogram(
        "tdam_serving_shard_scan_seconds",
        "Per-query scan time spent in one shard", kLatencyLo, latency_hi_,
        kShardBins, {{"shard", label}}));
    shard_segments_.push_back(&registry_.gauge(
        "tdam_serving_shard_segments",
        "Segments in one shard of the scanned snapshot", {{"shard", label}}));
  }
}

void ServingMetrics::record_shard_scan(int shard, double seconds) {
  if (shard < 0 || static_cast<std::size_t>(shard) >= shard_scan_.size())
    return;
  shard_scan_[static_cast<std::size_t>(shard)]->observe(seconds);
}

void ServingMetrics::set_shard_segments(int shard, std::size_t segments) {
  if (shard < 0 || static_cast<std::size_t>(shard) >= shard_segments_.size())
    return;
  shard_segments_[static_cast<std::size_t>(shard)]->set(
      static_cast<double>(segments));
}

void ServingMetrics::reset() {
  std::lock_guard<std::mutex> lock(batch_mutex_);
  registry_.reset();
}

ServingMetrics::Snapshot ServingMetrics::snapshot() const {
  std::lock_guard<std::mutex> lock(batch_mutex_);
  Snapshot s;
  s.queries = static_cast<std::size_t>(queries_->value());
  s.batches = static_cast<std::size_t>(batches_->value());
  s.wall_seconds = wall_seconds_->value();
  s.qps = s.wall_seconds > 0.0
              ? static_cast<double>(s.queries) / s.wall_seconds
              : 0.0;
  s.rejected = static_cast<std::size_t>(rejected_->value());
  s.shed = static_cast<std::size_t>(shed_->value());
  s.expired = static_cast<std::size_t>(expired_->value());
  s.queue_depth = static_cast<std::size_t>(queue_depth_->value());
  s.peak_queue_depth = static_cast<std::size_t>(peak_queue_depth_->value());
  s.resident_index_bytes =
      static_cast<std::size_t>(resident_index_bytes_->value());
  s.segments = static_cast<std::size_t>(segments_->value());
  s.delta_rows = static_cast<std::size_t>(delta_rows_->value());
  s.compactions = static_cast<std::size_t>(compactions_->value());
  s.compacted_rows = static_cast<std::size_t>(compacted_rows_->value());
  s.modeled_latency_total = modeled_latency_->value();
  s.modeled_energy_total = modeled_energy_->value();
  s.wall = wall_->snapshot();
  s.batch_sizes = batch_sizes_->snapshot();
  s.queue_wait = queue_wait_->snapshot();
  s.batch_wait = batch_wait_->snapshot();
  s.scan = scan_->snapshot();
  s.merge = merge_->snapshot();
  s.compaction = compaction_->snapshot();
  return s;
}

std::string ServingMetrics::summary_table() const {
  const Snapshot s = snapshot();
  Table t({"metric", "value"});
  t.add_row({"queries", std::to_string(s.queries)});
  t.add_row({"batches", std::to_string(s.batches)});
  t.add_row({"wall time (s)", Table::fmt(s.wall_seconds)});
  t.add_row({"throughput (QPS)", Table::fmt(s.qps)});
  t.add_row({"wall p50 (us)", Table::fmt(s.wall_quantile(0.50) * 1e6)});
  t.add_row({"wall p95 (us)", Table::fmt(s.wall_quantile(0.95) * 1e6)});
  t.add_row({"wall p99 (us)", Table::fmt(s.wall_quantile(0.99) * 1e6)});
  t.add_row({"batch size p50", Table::fmt(s.batch_size_quantile(0.50))});
  t.add_row({"batch size p99", Table::fmt(s.batch_size_quantile(0.99))});
  t.add_row({"queue depth (now/peak)",
             std::to_string(s.queue_depth) + "/" +
                 std::to_string(s.peak_queue_depth)});
  t.add_row({"rejected", std::to_string(s.rejected)});
  t.add_row({"shed", std::to_string(s.shed)});
  t.add_row({"deadline expired", std::to_string(s.expired)});
  t.add_row({"modeled HW latency/query (ns)",
             Table::fmt(s.modeled_latency_per_query() * 1e9)});
  t.add_row({"modeled HW energy/query (pJ)",
             Table::fmt(s.modeled_energy_per_query() * 1e12)});
  t.add_row(
      {"modeled HW energy total (nJ)", Table::fmt(s.modeled_energy_total * 1e9)});
  t.add_row({"resident index (KiB)",
             Table::fmt(static_cast<double>(s.resident_index_bytes) / 1024.0)});
  t.add_row({"segments (delta rows)",
             std::to_string(s.segments) + " (" +
                 std::to_string(s.delta_rows) + ")"});
  t.add_row({"compactions (rows)", std::to_string(s.compactions) + " (" +
                                       std::to_string(s.compacted_rows) +
                                       ")"});
  return t.render();
}

std::string ServingMetrics::stage_table() const {
  const Snapshot s = snapshot();
  Table t({"stage", "count", "p50 (us)", "p95 (us)", "p99 (us)"});
  const auto row = [&t](const char* name, const obs::HistogramSnapshot& h) {
    if (h.total() == 0) {
      t.add_row({name, "0", "-", "-", "-"});
      return;
    }
    t.add_row({name, std::to_string(h.total()),
               Table::fmt(h.quantile(0.50) * 1e6),
               Table::fmt(h.quantile(0.95) * 1e6),
               Table::fmt(h.quantile(0.99) * 1e6)});
  };
  row("queue wait", s.queue_wait);
  row("batch wait", s.batch_wait);
  row("scan", s.scan);
  row("merge", s.merge);
  return t.render();
}

}  // namespace tdam::runtime
