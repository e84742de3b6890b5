#include "layers.h"

#include <cstring>
#include <stdexcept>

#include "common.h"
#include "core/digit_matrix.h"
#include "core/kernels/kernels.h"
#include "core/segment.h"
#include "net/protocol.h"
#include "runtime/engine.h"

namespace servebench {
namespace {

using tdam::core::DigitMatrix;

DigitMatrix pack_queries(const Inputs& inputs, int count) {
  DigitMatrix m(kStages, kLevels);
  for (int q = 0; q < count; ++q) m.append(inputs.query_digits(q));
  return m;
}

std::vector<const tdam::core::Segment*> segments_of(
    const tdam::runtime::IndexSnapshot& snap) {
  std::vector<const tdam::core::Segment*> out;
  for (const auto& shard : snap.shards)
    for (const auto& seg : shard) out.push_back(seg.get());
  return out;
}

// Repeats `pass` until at least `seconds` have gone by (at least once).
template <typename F>
void repeat_for(double seconds, F pass) {
  const auto t0 = Clock::now();
  do {
    pass();
  } while (seconds_since(t0) < seconds);
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

}  // namespace

ScanLayers measure_scan(const tdam::runtime::IndexSnapshot& snap,
                        const Inputs& inputs, int query_tile,
                        SpanLog::Track& track) {
  const DigitMatrix queries = pack_queries(inputs, kPool);
  const auto segments = segments_of(snap);
  const int k = inputs.workload().k;
  std::size_t max_rows = 0;
  for (const auto* seg : segments) {
    if (seg->backend().packed_view() == nullptr)
      throw std::runtime_error("measure_scan: a segment has no packed matrix");
    max_rows = std::max(max_rows, static_cast<std::size_t>(seg->rows()));
  }
  std::vector<std::int32_t> out(max_rows);

  ScanLayers result;
  double kernel_ns = 0.0, rows = 0.0, bytes = 0.0;
  long kernel_queries = 0;
  const auto kernel_phase = track.open("core.kernels", now_ns());
  repeat_for(0.25, [&] {
    for (int q = 0; q < kPool; ++q) {
      for (const auto* seg : segments) {
        const DigitMatrix& m = *seg->backend().packed_view();
        const std::int64_t t0 = now_ns();
        tdam::core::kernels::mismatch_count_batch(
            m, queries.row_words(q),
            std::span<std::int32_t>(out.data(),
                                    static_cast<std::size_t>(m.rows())));
        const std::int64_t t1 = now_ns();
        track.add("core.kernels.mismatch_count_batch", t0, t1, kernel_phase,
                  static_cast<std::uint64_t>(q + 1));
        kernel_ns += static_cast<double>(t1 - t0);
        rows += m.rows();
        bytes += static_cast<double>(m.rows()) *
                 static_cast<double>(m.packed_row_bytes());
      }
      ++kernel_queries;
    }
  });
  track.close(kernel_phase, now_ns());
  result.kernel_us_per_query =
      kernel_ns * 1e-3 / static_cast<double>(kernel_queries);
  result.kernel_ns_per_row = kernel_ns / rows;
  result.kernel_gbytes_per_s = bytes / kernel_ns;

  double topk_ns = 0.0;
  long topk_queries = 0;
  const auto core_phase = track.open("core", now_ns());
  repeat_for(0.25, [&] {
    for (int first = 0; first < kPool; first += query_tile) {
      const int count = std::min(query_tile, kPool - first);
      for (const auto* seg : segments) {
        const std::int64_t t0 = now_ns();
        const auto hits =
            seg->backend().search_topk_packed_batch(queries, first, count, k);
        const std::int64_t t1 = now_ns();
        if (hits.size() != static_cast<std::size_t>(count))
          throw std::runtime_error("measure_scan: short batch answer");
        track.add("core.search_topk_packed_batch", t0, t1, core_phase,
                  static_cast<std::uint64_t>(first + 1));
        topk_ns += static_cast<double>(t1 - t0);
      }
      topk_queries += count;
    }
  });
  track.close(core_phase, now_ns());
  result.topk_us_per_query = topk_ns * 1e-3 / static_cast<double>(topk_queries);
  result.select_ratio = result.topk_us_per_query / result.kernel_us_per_query;
  return result;
}

EngineLayer measure_engine(const tdam::runtime::ShardedIndex& index,
                           const Inputs& inputs, Reference& reference,
                           SpanLog::Track& track) {
  constexpr int kBatch = 32;  // the scheduler's default max_batch
  const int k = inputs.workload().k;
  const DigitMatrix batch = pack_queries(inputs, kBatch);
  tdam::runtime::SearchEngine parallel(index, {.threads = kEngineThreads});
  tdam::runtime::SearchEngine serial(index, {.threads = 1});
  const auto snap = index.pin();
  const auto first_parallel = parallel.submit_batch(snap, batch, k);
  const auto first_serial = serial.submit_batch(snap, batch, k);

  std::vector<double> parallel_ms, serial_ms, scan_ms, merge_us;
  const auto phase = track.open("runtime.engine", now_ns());
  int reps = 0;
  const auto t_start = Clock::now();
  while (reps < 3 || (seconds_since(t_start) < 0.6 && reps < 200)) {
    std::int64_t t0 = now_ns();
    const auto results = parallel.submit_batch(snap, batch, k);
    std::int64_t t1 = now_ns();
    track.add("runtime.engine.submit_batch", t0, t1, phase);
    parallel_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    for (const auto& r : results) {
      scan_ms.push_back(r.scan_seconds * 1e3);
      merge_us.push_back(r.merge_seconds * 1e6);
    }
    t0 = now_ns();
    serial.submit_batch(snap, batch, k);
    t1 = now_ns();
    track.add("runtime.engine.submit_batch.serial", t0, t1, phase);
    serial_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    ++reps;
  }
  track.close(phase, now_ns());

  EngineLayer out;
  out.batch_ms = median(parallel_ms);
  out.thread_scaling = median(serial_ms) / out.batch_ms;
  out.scan_ms_p50 = median(scan_ms);
  out.merge_us_p50 = median(merge_us);

  std::vector<Answer> answers;
  out.modeled_repeat = first_serial.size() == first_parallel.size();
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t q = 0; q < first_parallel.size(); ++q) {
    const auto& p = first_parallel[q];
    answers.push_back({static_cast<int>(q),
                       static_cast<int>(snap->generation), p.entries});
    if (out.modeled_repeat) {
      const auto& s = first_serial[q];
      out.modeled_repeat = s.entries == p.entries &&
                           s.modeled_latency == p.modeled_latency &&
                           s.modeled_energy == p.modeled_energy &&
                           s.modeled_passes == p.modeled_passes;
    }
    out.modeled_passes_sum += p.modeled_passes;
    out.modeled_latency_sum_s += p.modeled_latency;
    out.modeled_energy_sum_j += p.modeled_energy;
    fnv_mix(digest, bits_of(p.modeled_latency));
    fnv_mix(digest, bits_of(p.modeled_energy));
    fnv_mix(digest, static_cast<std::uint64_t>(p.modeled_passes));
  }
  // 48 bits survive a round trip through a JSON double.
  out.modeled_digest = digest & ((std::uint64_t{1} << 48) - 1);
  out.wrong = reference.check(answers);
  return out;
}

double measure_codec_us(const Inputs& inputs, SpanLog::Track& track) {
  using namespace tdam::net;
  const int k = inputs.workload().k;
  double total_ns = 0.0;
  long queries = 0;
  std::uint64_t id = 1;
  const auto phase = track.open("net.codec", now_ns());
  repeat_for(0.1, [&] {
    for (int q = 0; q < kPool; ++q, ++id) {
      QueryReply answer;
      answer.code = WireCode::kOk;
      for (int i = 0; i < k; ++i)
        answer.entries.push_back({q * k + i, static_cast<double>(64 + i)});
      const std::int64_t t0 = now_ns();
      const auto frame = encode_query(
          id, QueryRequest{static_cast<std::uint32_t>(k), 0,
                           inputs.query_wire(q)});
      const auto header = decode_header(frame.data(), frame.size());
      const auto request =
          decode_query(frame.data() + kHeaderBytes, header.payload_len);
      const auto reply_frame = encode_query_reply(id, 0, answer);
      const auto reply_header =
          decode_header(reply_frame.data(), reply_frame.size());
      const auto reply = decode_query_reply(reply_frame.data() + kHeaderBytes,
                                            reply_header.payload_len);
      const std::int64_t t1 = now_ns();
      if (request.digits != inputs.query_wire(q) ||
          reply.entries != answer.entries)
        throw std::runtime_error("measure_codec: frame did not round-trip");
      track.add("net.codec.query_roundtrip", t0, t1, phase, id);
      total_ns += static_cast<double>(t1 - t0);
      ++queries;
    }
  });
  track.close(phase, now_ns());
  return total_ns * 1e-3 / static_cast<double>(queries);
}

IndexLayer measure_index(const tdam::core::BackendRegistry& registry,
                         const std::string& index_path, const Inputs& inputs,
                         SpanLog::Track& track) {
  // Per-shard deltas grow to 512 rows: half the default seal threshold,
  // the mean delta size under steady ingest.
  constexpr int kStoreRows = 2048;
  auto index = tdam::runtime::ShardedIndex::load(registry, index_path);
  std::vector<std::vector<int>> rows;
  for (int j = 0; j < kStoreRows; ++j)
    rows.push_back(unpack_digits(inputs.write_packed(j)));

  IndexLayer out;
  std::vector<double> store_us;
  const auto phase = track.open("runtime.index", now_ns());
  for (int j = 0; j < kStoreRows; ++j) {
    const std::int64_t t0 = now_ns();
    const int id = index.store(rows[static_cast<std::size_t>(j)]);
    const std::int64_t t1 = now_ns();
    if (id != inputs.base_rows() + j)
      throw std::runtime_error("measure_index: store landed at a wrong id");
    track.add("runtime.index.store", t0, t1, phase);
    store_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  out.store_us_p50 = quantile(store_us, 0.5);
  out.store_us_p99 = quantile(store_us, 0.99);
  const auto snap = index.pin();
  out.segments = snap->segments;
  out.delta_rows = snap->delta_rows;

  std::int64_t t0 = now_ns();
  index.compact_now();
  std::int64_t t1 = now_ns();
  track.add("runtime.index.compact_now", t0, t1, phase);
  out.compact_ms = static_cast<double>(t1 - t0) * 1e-6;

  constexpr int kPins = 200000;
  long rows_seen = 0;
  t0 = now_ns();
  for (int i = 0; i < kPins; ++i) rows_seen += index.pin()->rows;
  t1 = now_ns();
  track.add("runtime.index.pin", t0, t1, phase);
  if (rows_seen != static_cast<long>(kPins) * index.size())
    throw std::runtime_error("measure_index: pin saw a changing index");
  out.pin_ns = static_cast<double>(t1 - t0) / kPins;
  track.close(phase, now_ns());
  return out;
}

}  // namespace servebench
