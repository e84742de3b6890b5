#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tdam::obs {

namespace detail {

std::size_t thread_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

}  // namespace detail

double HistogramSnapshot::quantile(double p) const {
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument(
        "HistogramSnapshot::quantile: p must be in [0, 1]");
  const auto n = total();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  const double rank = p * static_cast<double>(n);
  double cum = static_cast<double>(underflow);
  if (underflow > 0 && rank <= cum) return lo;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c > 0.0 && rank <= cum + c) {
      const double frac = std::clamp((rank - cum) / c, 0.0, 1.0);
      return edges[i] + frac * (edges[i + 1] - edges[i]);
    }
    cum += c;
  }
  return hi;  // remaining mass is overflow: clamp to the binned range
}

Histogram::Histogram(std::string name, std::string help, Labels labels,
                     double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), name_(std::move(name)), help_(std::move(help)),
      labels_(std::move(labels)) {
  if (!(hi > lo))
    throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins == 0)
    throw std::invalid_argument("Histogram: need at least one bin");
  if (!(lo > 0.0))
    throw std::invalid_argument("Histogram: exponential buckets need lo > 0");
  edges_.reserve(bins + 1);
  const double log_growth = std::log(hi / lo) / static_cast<double>(bins);
  inv_log_growth_ = 1.0 / log_growth;
  for (std::size_t i = 0; i < bins; ++i)
    edges_.push_back(lo * std::exp(log_growth * static_cast<double>(i)));
  edges_.push_back(hi);  // exact, whatever rounding the grid accumulated
  for (std::size_t i = 0; i < bins; ++i) counts_.emplace_back(0);
}

std::size_t Histogram::exponential_bin(double x) const noexcept {
  // Callers already excluded x < lo and x >= hi; log is safe and the
  // result non-negative (modulo a last-ulp wobble the clamp in observe()
  // absorbs on the high side and the max() here on the low side).
  const double b = std::log(x / lo_) * inv_log_growth_;
  return static_cast<std::size_t>(std::max(b, 0.0));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.lo = lo_;
  snap.hi = hi_;
  snap.edges = edges_;
  snap.counts.reserve(counts_.size());
  for (const auto& c : counts_)
    snap.counts.push_back(c.load(std::memory_order_relaxed));
  snap.underflow = underflow_.load(std::memory_order_relaxed);
  snap.overflow = overflow_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  underflow_.store(0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::string MetricsRegistry::identity(const std::string& name,
                                      const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';  // unit separator: cannot appear in sane label text
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto key = identity(name, labels);
  for (const auto& [k, e] : order_)
    if (k == key) {
      if (e.kind != Kind::kCounter)
        throw std::invalid_argument("MetricsRegistry: '" + name +
                                    "' already registered as a non-counter");
      return *counters_[e.index];
    }
  counters_.push_back(
      std::unique_ptr<Counter>(new Counter(name, help, std::move(labels))));
  order_.emplace_back(key, Entry{Kind::kCounter, counters_.size() - 1});
  return *counters_.back();
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto key = identity(name, labels);
  for (const auto& [k, e] : order_)
    if (k == key) {
      if (e.kind != Kind::kGauge)
        throw std::invalid_argument("MetricsRegistry: '" + name +
                                    "' already registered as a non-gauge");
      return *gauges_[e.index];
    }
  gauges_.push_back(
      std::unique_ptr<Gauge>(new Gauge(name, help, std::move(labels))));
  order_.emplace_back(key, Entry{Kind::kGauge, gauges_.size() - 1});
  return *gauges_.back();
}

Histogram& MetricsRegistry::exponential_histogram(const std::string& name,
                                                  const std::string& help,
                                                  double lo, double hi,
                                                  std::size_t bins,
                                                  Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto key = identity(name, labels);
  for (const auto& [k, e] : order_)
    if (k == key) {
      if (e.kind != Kind::kHistogram)
        throw std::invalid_argument("MetricsRegistry: '" + name +
                                    "' already registered as a non-histogram");
      auto& h = *histograms_[e.index];
      if (h.lo() != lo || h.hi() != hi || h.bins() != bins)
        throw std::invalid_argument(
            "MetricsRegistry: '" + name +
            "' re-registered with different histogram geometry");
      return h;
    }
  histograms_.push_back(std::unique_ptr<Histogram>(
      new Histogram(name, help, std::move(labels), lo, hi, bins)));
  order_.emplace_back(key, Entry{Kind::kHistogram, histograms_.size() - 1});
  return *histograms_.back();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& c : counters_) c->reset();
  for (auto& g : gauges_) g->reset();
  for (auto& h : histograms_) h->reset();
}

std::vector<const Counter*> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Counter*> out;
  for (const auto& [key, e] : order_)
    if (e.kind == Kind::kCounter) out.push_back(counters_[e.index].get());
  return out;
}

std::vector<const Gauge*> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Gauge*> out;
  for (const auto& [key, e] : order_)
    if (e.kind == Kind::kGauge) out.push_back(gauges_[e.index].get());
  return out;
}

std::vector<const Histogram*> MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Histogram*> out;
  for (const auto& [key, e] : order_)
    if (e.kind == Kind::kHistogram) out.push_back(histograms_[e.index].get());
  return out;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return order_.size();
}

}  // namespace tdam::obs
