// Test-only backends that wrap the exact reference and interfere with its
// search hook (an injected failure, a gate).  The gated backend holds every
// search until the test opens its Gate; that is how serving tests keep
// queries queued deterministically: the first micro-batch blocks inside the
// engine, the dispatcher with it, and everything submitted after it stays
// in the scheduler's queue until the test says otherwise.
#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/exact_backend.h"
#include "core/registry.h"

namespace tdam::test_support {

// Forwards every hook to an ExactL1Backend under its own name; subclasses
// override search_topk_packed_batch and call this one to answer.
class WrappedExactBackend : public core::SimilarityBackend {
 public:
  WrappedExactBackend(std::string name, int stages, int levels)
      : name_(std::move(name)), inner_(stages, levels) {}

  std::string name() const override { return name_; }
  core::DigitMetric metric() const override { return inner_.metric(); }
  int stages() const override { return inner_.stages(); }
  int levels() const override { return inner_.levels(); }
  int rows() const override { return inner_.rows(); }
  int store(std::span<const int> digits) override {
    return inner_.store(digits);
  }
  void clear() override { inner_.clear(); }
  std::vector<int> row_digits(int row) const override {
    return inner_.row_digits(row);
  }
  std::vector<core::BackendTopK> search_topk_packed_batch(
      const core::DigitMatrix& queries, int first, int count,
      int k) const override {
    return inner_.search_topk_packed_batch(queries, first, count, k);
  }
  int query_tile() const override { return inner_.query_tile(); }
  void adopt_matrix(core::DigitMatrix matrix) override {
    inner_.adopt_matrix(std::move(matrix));
  }
  const core::DigitMatrix* packed_view() const override {
    return inner_.packed_view();
  }
  core::QueryCost query_cost(double mismatch_fraction) const override {
    return inner_.query_cost(mismatch_fraction);
  }
  std::size_t resident_bytes() const override {
    return inner_.resident_bytes();
  }

 private:
  std::string name_;
  core::ExactL1Backend inner_;
};

// Shut until open(); every search call that reaches it is counted and
// blocks while it is shut.  Once open it stays open.
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    changed_.notify_all();
  }

  // Backend side: counts the call, then waits for open().
  void pass() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrivals_;
    changed_.notify_all();
    changed_.wait(lock, [this] { return open_; });
  }

  // Test side: true once `n` search calls have reached the gate.  Gives up
  // after ten seconds and opens the gate, so a failed test cannot hang in
  // the teardown of a server whose dispatcher is still held.
  bool await_arrivals(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (changed_.wait_for(lock, std::chrono::seconds(10),
                          [this, n] { return arrivals_ >= n; }))
      return true;
    open_ = true;
    lock.unlock();
    changed_.notify_all();
    return false;
  }

  // Opens the gate from a helper thread after `delay`, for a test whose
  // next call (shutdown, destruction, stop) returns only once the held
  // search does: that call starts while the queries are still held.  The
  // returned thread joins when it goes out of scope.
  std::jthread open_after(std::chrono::milliseconds delay) {
    return std::jthread([this, delay] {
      std::this_thread::sleep_for(delay);
      open();
    });
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool open_ = false;
  int arrivals_ = 0;
};

// The exact backend behind a Gate.
class GatedBackend final : public WrappedExactBackend {
 public:
  GatedBackend(std::shared_ptr<Gate> gate, int stages, int levels)
      : WrappedExactBackend("gated", stages, levels), gate_(std::move(gate)) {}

  std::vector<core::BackendTopK> search_topk_packed_batch(
      const core::DigitMatrix& queries, int first, int count,
      int k) const override {
    gate_->pass();
    return WrappedExactBackend::search_topk_packed_batch(queries, first, count,
                                                         k);
  }

 private:
  std::shared_ptr<Gate> gate_;
};

// Registers "gated": every backend it creates waits on `gate`.
inline void add_gated_backend(core::BackendRegistry& registry,
                              std::shared_ptr<Gate> gate, int stages,
                              int levels) {
  registry.add("gated", [gate = std::move(gate), stages, levels] {
    return std::make_unique<GatedBackend>(gate, stages, levels);
  });
}

}  // namespace tdam::test_support
