// Shared definitions of the serving benchmark: the fixed geometry every
// workload uses, the workload table, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Every workload stores 2-bit digits in 256-stage rows over 4 shards, and
// the server runs 2 engine threads with the default scheduler settings.
inline constexpr int kStages = 256;
inline constexpr int kBits = 2;
inline constexpr int kLevels = 1 << kBits;
inline constexpr int kShards = 4;
inline constexpr int kEngineThreads = 2;
// Distinct queries generated per run; requests cycle through them.
inline constexpr int kPool = 128;
// Rows per STORE_BATCH frame.
inline constexpr int kWriteBatch = 16;
// STORE_BATCH frames that fill each of the 4 shards' deltas to the default
// seal size (1,024 rows) once.  A store rebuilds its shard's delta, so its
// cost grows over such a cycle about fifteenfold; write rates are taken
// over whole cycles.
inline constexpr int kSealCycleFrames = 4 * 1024 / kWriteBatch;
// The write probe that gives the store metrics on the read-only workloads
// (see main.cpp): three seal cycles of frames back to back on the idle
// server after the read window, so the median cycle rate passes over one
// cycle slowed by the shared host.  With the loaded segment they make the
// default compaction trigger of 4 sealed segments per shard only as the
// last frame is stored.
inline constexpr int kProbeFrames = 3 * kSealCycleFrames;
// The query p99 is the median over groups of this many consecutive replies
// of each group's p99 (ten replies beyond it), so one host stall moves one
// group, not the figure.
inline constexpr std::size_t kTailGroup = 1000;

enum class Loop { kOpen, kClosed };

struct Workload {
  const char* name;
  const char* backend;
  int rows;         // rows in the generated index file
  int k;
  Loop loop;
  double read_qps;  // open loop: offered QUERY rate
  int connections;  // read connections
  int outstanding;  // closed loop: queries kept in flight per connection
  bool writer;       // an unpaced STORE_BATCH writer runs beside the reads
};

// The three workloads; see main.cpp for why each exists.
inline constexpr Workload kWorkloads[] = {
    {"wire_light", "behavioral", 4096, 3, Loop::kOpen, 400.0, 1, 1, false},
    {"scan_saturate", "exact", 65536, 10, Loop::kClosed, 0.0, 2, 32, false},
    {"ingest_mixed", "exact", 8192, 3, Loop::kOpen, 400.0, 1, 1, true},
};

inline const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// Runs `body` on its own thread, keeping any exception for join_rethrow.
// The destructor joins, so a thread never outlives what it captured.
class Worker {
 public:
  template <typename F>
  explicit Worker(F body)
      : thread_([this, body = std::move(body)]() mutable {
          try {
            body();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~Worker() {
    if (thread_.joinable()) thread_.join();
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void join_rethrow() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;
  std::thread thread_;
};

// Nearest-rank quantile, p in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Events per second: the median over groups of `group` consecutive events
// (times in ns from `start_ns` on) of the group's size over the time since
// the previous group's last event, so a host stall moves the groups it
// falls in, not the figure.  Fewer than two groups give the overall rate;
// no events give 0.
inline double median_group_rate(std::vector<std::int64_t> times_ns,
                                std::int64_t start_ns, std::size_t group) {
  if (times_ns.empty()) return 0.0;
  std::sort(times_ns.begin(), times_ns.end());
  if (times_ns.size() < 2 * group) group = times_ns.size();
  std::vector<double> rates;
  std::int64_t from = start_ns;
  for (std::size_t last = group; last <= times_ns.size(); last += group) {
    const std::int64_t to = times_ns[last - 1];
    rates.push_back(static_cast<double>(group) * 1e9 /
                    static_cast<double>(std::max<std::int64_t>(to - from, 1)));
    from = to;
  }
  return median(std::move(rates));
}

// Median over consecutive groups of `group` values of each group's
// p-quantile; a trailing partial group joins the one before it.
inline double grouped_quantile(const std::vector<double>& values, double p,
                               std::size_t group) {
  if (values.size() < 2 * group) return quantile(values, p);
  std::vector<double> per_group;
  for (std::size_t first = 0; first + group <= values.size(); first += group) {
    const bool last = first + 2 * group > values.size();
    const auto end = last ? values.end()
                          : values.begin() + static_cast<std::ptrdiff_t>(first + group);
    per_group.push_back(quantile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(first), end), p));
  }
  return median(per_group);
}

}  // namespace servebench
