// Low-overhead metrics substrate for the serving stack (Layer 7).
//
// The serving hot path (dispatcher thread + engine workers + submitters)
// records counters and latency samples millions of times per second; a
// single mutex in front of them (the pre-refactor ServingMetrics) turns the
// metrics object itself into a contention point.  This registry keeps the
// record side lock-free:
//
//  * Counter    — monotone, double-valued, striped across cache-line-aligned
//    atomic cells; each thread is assigned a stripe on first use and only
//    ever touches that cell (relaxed CAS-add), so concurrent writers never
//    share a line.  value() sums the stripes on scrape.
//  * Gauge      — one atomic double with set()/add()/max() — gauges are
//    written whole, so striping buys nothing.
//  * Histogram  — fixed bins over [lo, hi) with atomic per-bin counts,
//    under/overflow counts, and a running sum; observe() is one relaxed
//    fetch_add plus one CAS-add.  Bucket edges are geometric, lo·g^i —
//    constant *relative* resolution, so one instrument resolves p99s
//    across the µs→s range (and, at a few bins per octave, small integer
//    counts such as batch sizes).  The bin index is one log() call.
//    snapshot() merges into a plain HistogramSnapshot whose quantile()
//    mirrors util::Histogram semantics (uniform mass within a bin, clamps
//    for under/overflow ranks, NaN when empty), over the snapshot's
//    explicit edge vector.
//
// Instruments are created through the registry (creation takes a mutex —
// cold path only) and identified by (name, labels); re-requesting the same
// identity returns the same instrument, so components can share a registry
// without coordinating.  Pointers handed out are stable for the registry's
// lifetime.  Scrapes (export_prometheus / export_json / per-instrument
// reads) are safe against concurrent recording: every read is an atomic
// load, so a scrape observes each instrument atomically even mid-traffic
// (cross-instrument skew is bounded by whatever consistency the *caller*
// layers on top — ServingMetrics uses one batch mutex for its multi-counter
// batch section).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tdam::obs {

// Prometheus-style instrument labels, fixed at creation.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
// Stripe count for counters: enough that 8-16 serving threads rarely
// collide, small enough that scrape-time summing stays trivial.
inline constexpr std::size_t kStripes = 16;

// Each thread gets a stripe index on first use (round-robin over the
// process lifetime), so a given thread always hits the same cell.
std::size_t thread_stripe() noexcept;

// C++20 atomic<double> fetch_add is not yet universal; a relaxed CAS loop
// is equivalent for monotone accumulation.
inline void atomic_add(std::atomic<double>& cell, double v) noexcept {
  double cur = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed))
    ;
}

inline void atomic_max(std::atomic<double>& cell, double v) noexcept {
  double cur = cell.load(std::memory_order_relaxed);
  while (cur < v &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed))
    ;
}
}  // namespace detail

// Monotonically increasing, double-valued (doubles carry exact integers to
// 2^53, and wall-seconds/energy totals need fractions anyway).
class Counter {
 public:
  void add(double v = 1.0) noexcept {
    detail::atomic_add(cells_[detail::thread_stripe()].v, v);
  }
  double value() const noexcept {
    double total = 0.0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const Labels& labels() const { return labels_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help, Labels labels)
      : name_(std::move(name)), help_(std::move(help)),
        labels_(std::move(labels)) {}
  void reset() noexcept {
    for (auto& c : cells_) c.v.store(0.0, std::memory_order_relaxed);
  }

  struct alignas(64) Cell {
    std::atomic<double> v{0.0};
  };
  Cell cells_[detail::kStripes];
  std::string name_, help_;
  Labels labels_;
};

// Last-write-wins instantaneous value, plus an add() for up/down tracking
// and max() for high-water marks.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept { detail::atomic_add(value_, v); }
  void max(double v) noexcept { detail::atomic_max(value_, v); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const Labels& labels() const { return labels_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, std::string help, Labels labels)
      : name_(std::move(name)), help_(std::move(help)),
        labels_(std::move(labels)) {}
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

  std::atomic<double> value_{0.0};
  std::string name_, help_;
  Labels labels_;
};

// Bucket layout of a Histogram, named in every export: geometric edges.
enum class HistogramKind { kExponential };

// Merged, plain-value view of a Histogram at one scrape instant.  `edges`
// always holds counts.size() + 1 monotone bucket boundaries (edges[0] == lo,
// edges.back() == hi) so readers never need to re-derive the geometry.
struct HistogramSnapshot {
  double lo = 0.0;
  double hi = 1.0;
  HistogramKind kind = HistogramKind::kExponential;
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  double sum = 0.0;

  std::uint64_t total() const {
    std::uint64_t t = underflow + overflow;
    for (auto c : counts) t += c;
    return t;
  }
  double mean() const {
    const auto t = total();
    return t == 0 ? 0.0 : sum / static_cast<double>(t);
  }
  // p in [0, 1] (throws outside); same estimator and clamping contract as
  // util::Histogram::quantile — uniform mass within a bucket (whatever its
  // width), under/overflow ranks clamp to lo/hi, NaN when empty.
  double quantile(double p) const;
};

// Fixed-bucket histogram with atomic cells: one fetch_add per observation.
// The geometric edges are fixed at creation; observe() costs one log() to
// find the bin.
class Histogram {
 public:
  void observe(double x) noexcept {
    detail::atomic_add(sum_, x);
    if (x < lo_) {
      underflow_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (x >= hi_) {
      overflow_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::size_t bin = exponential_bin(x);
    if (bin >= counts_.size()) bin = counts_.size() - 1;
    counts_[bin].fetch_add(1, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

  HistogramKind kind() const { return HistogramKind::kExponential; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bins() const { return counts_.size(); }
  // Bucket boundaries, bins() + 1 entries; edges()[0] == lo(), back() == hi().
  const std::vector<double>& edges() const { return edges_; }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const Labels& labels() const { return labels_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::string help, Labels labels, double lo,
            double hi, std::size_t bins);
  void reset() noexcept;
  std::size_t exponential_bin(double x) const noexcept;

  double lo_, hi_;
  double inv_log_growth_ = 0.0;  // 1 / ln(edge growth factor)
  std::vector<double> edges_;
  std::deque<std::atomic<std::uint64_t>> counts_;  // deque: atomics don't move
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<double> sum_{0.0};
  std::string name_, help_;
  Labels labels_;
};

// Owns instruments; hands out stable pointers.  Creation/lookup serialize
// on one mutex (cold); recording through the returned instruments never
// touches it.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent by (name, labels): a second request with the same identity
  // returns the existing instrument; the same identity registered as a
  // different kind (or a histogram with different geometry) throws
  // std::invalid_argument.  Names/labels are exported verbatim (the
  // Prometheus exporter sanitizes names and escapes label values).
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  // Geometric buckets lo·g^i over [lo, hi), lo > 0; constant relative
  // width, so the same instrument resolves microseconds and seconds.
  Histogram& exponential_histogram(const std::string& name,
                                   const std::string& help, double lo,
                                   double hi, std::size_t bins,
                                   Labels labels = {});

  // Zeroes every instrument (counts, gauges, bins).  Racing recorders may
  // land increments on either side of the reset — same contract a process
  // restart gives a scraper.
  void reset();

  // Stable, registration-ordered scrape views (instrument pointers remain
  // valid for the registry's lifetime).
  std::vector<const Counter*> counters() const;
  std::vector<const Gauge*> gauges() const;
  std::vector<const Histogram*> histograms() const;
  std::size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::size_t index;  // into the kind's store
  };
  static std::string identity(const std::string& name, const Labels& labels);

  mutable std::mutex mutex_;
  // unique_ptr: instruments hold atomics, so they never move once created —
  // which is also what makes the handed-out references stable.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::vector<std::pair<std::string, Entry>> order_;  // registration order
};

}  // namespace tdam::obs
