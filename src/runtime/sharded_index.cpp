#include "runtime/sharded_index.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/index_io.h"
#include "runtime/metrics.h"

namespace tdam::runtime {

std::size_t IndexSnapshot::resident_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards)
    for (const auto& seg : shard) total += seg->backend().resident_bytes();
  return total;
}

// All writer state lives here, behind one mutex: the per-shard sealed runs,
// the raw delta buffers a store() rebuild reads from, the id counter, and
// the compaction thread.  Readers never touch any of it — they only load
// the atomic snapshot pointer.
class ShardedIndex::Impl {
 public:
  Impl(const core::BackendRegistry& registry, ShardedIndexOptions options)
      : options_(std::move(options)), registry_(registry) {
    if (options_.shards < 1)
      throw std::invalid_argument("ShardedIndex: shards must be >= 1 (got " +
                                  std::to_string(options_.shards) + ")");
    if (options_.seal_rows < 1)
      throw std::invalid_argument(
          "ShardedIndex: seal_rows must be >= 1 (got " +
          std::to_string(options_.seal_rows) + ")");
    if (options_.compact_min_segments < 2)
      throw std::invalid_argument(
          "ShardedIndex: compact_min_segments must be >= 2 (got " +
          std::to_string(options_.compact_min_segments) + ")");
    // A probe instance pins the geometry (and faults unknown backends at
    // construction, like the seed's eager per-shard creation did).
    const auto probe = registry_.create(options_.backend);
    stages_ = probe->stages();
    levels_ = probe->levels();
    metric_ = probe->metric();
    query_tile_ = std::max(1, probe->query_tile());
    writers_.resize(static_cast<std::size_t>(options_.shards));
    publish_locked();  // the empty epoch-0 snapshot
    if (options_.background_compaction)
      compactor_ = std::thread([this] { compactor_loop(); });
  }

  ~Impl() {
    if (compactor_.joinable()) {
      {
        std::lock_guard lock(write_mutex_);
        stop_ = true;
      }
      compact_cv_.notify_all();
      compactor_.join();
    }
  }

  const ShardedIndexOptions& options() const { return options_; }
  int stages() const { return stages_; }
  int levels() const { return levels_; }
  core::DigitMetric metric() const { return metric_; }
  int query_tile() const { return query_tile_; }

  std::shared_ptr<const IndexSnapshot> pin() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  int store(std::span<const int> digits) {
    std::lock_guard lock(write_mutex_);
    const int s = pick_shard_locked();
    auto& w = writers_[static_cast<std::size_t>(s)];
    // Copy-on-write: rebuild the delta with the new row appended.  The
    // builder's backend validates `digits` here, before any writer state
    // is committed, so a bad row leaves the index untouched.
    core::SegmentBuilder builder(registry_, options_.backend);
    const int rows = static_cast<int>(w.delta_ids.size());
    for (int r = 0; r < rows; ++r)
      builder.append(delta_row(w, r), w.delta_ids[static_cast<std::size_t>(r)]);
    const int global = next_global_;
    builder.append(digits, global);
    auto segment = builder.seal();

    w.delta_digits.insert(w.delta_digits.end(), digits.begin(), digits.end());
    w.delta_ids.push_back(global);
    ++next_global_;
    if (static_cast<int>(w.delta_ids.size()) >= options_.seal_rows) {
      // Sealing is a move, not a rebuild: the delta segment is already
      // immutable, it just stops growing.
      w.sealed.push_back(std::move(segment));
      w.sealed_rows += static_cast<int>(w.delta_ids.size());
      w.delta.reset();
      w.delta_digits.clear();
      w.delta_ids.clear();
    } else {
      w.delta = std::move(segment);
    }
    ++generation_;
    publish_locked();
    if (compaction_candidate_locked() >= 0) compact_cv_.notify_one();
    return global;
  }

  void clear() {
    std::lock_guard lock(write_mutex_);
    for (auto& w : writers_) w = ShardWriter{};
    next_global_ = 0;
    ++generation_;
    publish_locked();
  }

  void compact_now() {
    std::lock_guard lock(write_mutex_);
    for (auto& w : writers_) {
      auto parts = w.sealed;
      if (w.delta) parts.push_back(w.delta);
      if (parts.size() < 2) {
        if (w.delta) seal_delta_locked(w);  // single delta: just freeze it
        continue;
      }
      const auto start = std::chrono::steady_clock::now();
      auto merged = core::merge_segments(registry_, options_.backend, parts);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      w.sealed.assign(1, std::move(merged));
      w.sealed_rows += static_cast<int>(w.delta_ids.size());
      w.delta.reset();
      w.delta_digits.clear();
      w.delta_ids.clear();
      record_compaction_locked(seconds, w.sealed.front()->rows());
    }
    publish_locked();  // layout changed, contents and generation did not
  }

  std::uint64_t compactions() const {
    return compactions_.load(std::memory_order_relaxed);
  }

  void set_metrics(ServingMetrics* metrics) {
    std::lock_guard lock(write_mutex_);
    metrics_ = metrics;
    if (metrics_) push_gauges_locked();
  }

  void save(const std::string& path) const {
    const auto snap = pin();  // the file is this snapshot, nothing newer
    core::IndexFileInfo info;
    info.backend = options_.backend;
    info.stages = stages_;
    info.levels = levels_;
    info.shards = options_.shards;
    info.rows = static_cast<std::uint64_t>(snap->rows);
    std::vector<core::SavedSegment> saved;
    saved.reserve(static_cast<std::size_t>(snap->segments));
    for (int s = 0; s < snap->num_shards(); ++s) {
      for (const auto& seg : snap->shards[static_cast<std::size_t>(s)]) {
        if (seg->rows() == 0) continue;
        const core::DigitMatrix* m = seg->backend().packed_view();
        saved.push_back(core::SavedSegment{
            s, seg->global_ids(),
            {m->words_data(), static_cast<std::size_t>(m->rows()) *
                                  static_cast<std::size_t>(m->words_per_row())}});
      }
    }
    core::save_index_file(path, info, saved);
  }

  // Adopts a freshly mapped file into the (still empty) writer state: one
  // registry-built backend per segment referencing the mapping in place,
  // every segment sealed.  The delta restarts empty; generation stays 0.
  void install(core::LoadedIndex loaded) {
    if (stages_ != loaded.info.stages || levels_ != loaded.info.levels)
      throw std::runtime_error(
          "ShardedIndex::load: the registry builds '" + options_.backend +
          "' with stages=" + std::to_string(stages_) + " levels=" +
          std::to_string(levels_) + ", but the file declares stages=" +
          std::to_string(loaded.info.stages) + " levels=" +
          std::to_string(loaded.info.levels));
    if (loaded.info.rows >
        static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
      throw std::runtime_error("ShardedIndex::load: file declares " +
                               std::to_string(loaded.info.rows) +
                               " rows, more than an int row id can address");
    std::lock_guard lock(write_mutex_);
    for (auto& seg : loaded.segments) {
      const auto shard = static_cast<std::size_t>(seg.shard);
      auto& w = writers_[shard];
      if (!w.sealed.empty() && !seg.ids.empty() &&
          seg.ids.front() <= w.sealed.back()->global_id(
                                 w.sealed.back()->rows() - 1))
        throw std::runtime_error(
            "ShardedIndex::load: shard " + std::to_string(seg.shard) +
            " segments do not chain in ascending global-id order");
      auto backend = registry_.create(options_.backend);
      backend->adopt_matrix(std::move(seg.matrix));
      auto segment = std::make_shared<const core::Segment>(
          std::move(backend), std::move(seg.ids), loaded.mapping);
      w.sealed_rows += segment->rows();
      w.sealed.push_back(std::move(segment));
    }
    next_global_ = static_cast<int>(loaded.info.rows);
    publish_locked();
    if (compaction_candidate_locked() >= 0) compact_cv_.notify_one();
  }

 private:
  struct ShardWriter {
    std::vector<std::shared_ptr<const core::Segment>> sealed;
    std::shared_ptr<const core::Segment> delta;  // null when empty
    // Raw row-major digits backing the delta — what the per-store rebuild
    // replays (cheaper and simpler than unpacking the old delta).
    std::vector<int> delta_digits;
    std::vector<int> delta_ids;
    int sealed_rows = 0;

    int rows() const {
      return sealed_rows + static_cast<int>(delta_ids.size());
    }
  };

  std::span<const int> delta_row(const ShardWriter& w, int r) const {
    return std::span<const int>(w.delta_digits)
        .subspan(static_cast<std::size_t>(r) * static_cast<std::size_t>(stages_),
                 static_cast<std::size_t>(stages_));
  }

  void seal_delta_locked(ShardWriter& w) {
    w.sealed.push_back(std::move(w.delta));
    w.sealed_rows += static_cast<int>(w.delta_ids.size());
    w.delta.reset();
    w.delta_digits.clear();
    w.delta_ids.clear();
  }

  int pick_shard_locked() const {
    const int shards = static_cast<int>(writers_.size());
    if (options_.placement == Placement::kRoundRobin)
      return next_global_ % shards;
    int best = 0;
    for (int s = 1; s < shards; ++s)
      if (writers_[static_cast<std::size_t>(s)].rows() <
          writers_[static_cast<std::size_t>(best)].rows())
        best = s;
    return best;
  }

  // Builds and atomically publishes a fresh snapshot of the writer state.
  // Callers hold write_mutex_.
  void publish_locked() {
    auto snap = std::make_shared<IndexSnapshot>();
    snap->shards.reserve(writers_.size());
    for (const auto& w : writers_) {
      auto& list = snap->shards.emplace_back(w.sealed);
      if (w.delta) list.push_back(w.delta);
      snap->segments += static_cast<int>(list.size());
      snap->delta_rows += static_cast<int>(w.delta_ids.size());
    }
    snap->generation = generation_;
    snap->rows = next_global_;
    snapshot_.store(std::move(snap), std::memory_order_release);
    push_gauges_locked();
  }

  void push_gauges_locked() {
    if (!metrics_) return;
    int segments = 0, delta_rows = 0;
    for (const auto& w : writers_) {
      segments += static_cast<int>(w.sealed.size()) + (w.delta ? 1 : 0);
      delta_rows += static_cast<int>(w.delta_ids.size());
    }
    metrics_->set_segment_stats(static_cast<std::size_t>(segments),
                                static_cast<std::size_t>(delta_rows));
  }

  void record_compaction_locked(double seconds, int rows) {
    compactions_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_) metrics_->record_compaction(seconds, static_cast<std::size_t>(rows));
  }

  // Shard most worth compacting (most sealed segments past the threshold),
  // or -1.  Callers hold write_mutex_.
  int compaction_candidate_locked() const {
    int best = -1;
    std::size_t best_segments = 0;
    for (std::size_t s = 0; s < writers_.size(); ++s) {
      const auto n = writers_[s].sealed.size();
      if (n >= static_cast<std::size_t>(options_.compact_min_segments) &&
          n > best_segments) {
        best = static_cast<int>(s);
        best_segments = n;
      }
    }
    return best;
  }

  void compactor_loop() {
    std::unique_lock lock(write_mutex_);
    for (;;) {
      compact_cv_.wait(lock, [this] {
        return stop_ || compaction_candidate_locked() >= 0;
      });
      if (stop_) return;
      const int s = compaction_candidate_locked();
      // Merge outside the lock: stores and queries proceed while the new
      // segment is built from the immutable parts.
      const auto parts = writers_[static_cast<std::size_t>(s)].sealed;
      lock.unlock();
      const auto start = std::chrono::steady_clock::now();
      auto merged = core::merge_segments(registry_, options_.backend, parts);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      lock.lock();
      // Revalidate: clear() or compact_now() may have swapped the list
      // while we merged.  The sealed prefix must still be exactly the
      // parts we merged, else the merge is stale and is dropped.
      auto& w = writers_[static_cast<std::size_t>(s)];
      const bool current =
          w.sealed.size() >= parts.size() &&
          std::equal(parts.begin(), parts.end(), w.sealed.begin());
      if (!current) continue;
      w.sealed.erase(w.sealed.begin(),
                     w.sealed.begin() + static_cast<std::ptrdiff_t>(parts.size()));
      w.sealed.insert(w.sealed.begin(), std::move(merged));
      record_compaction_locked(seconds, w.sealed.front()->rows());
      publish_locked();
    }
  }

  ShardedIndexOptions options_;
  core::BackendRegistry registry_;  // by value: factories outlive callers
  int stages_ = 0;
  int levels_ = 0;
  core::DigitMetric metric_ = core::DigitMetric::kMismatchCount;
  int query_tile_ = 1;

  std::atomic<std::shared_ptr<const IndexSnapshot>> snapshot_;

  mutable std::mutex write_mutex_;
  std::vector<ShardWriter> writers_;
  int next_global_ = 0;
  std::uint64_t generation_ = 0;
  ServingMetrics* metrics_ = nullptr;  // guarded by write_mutex_

  std::atomic<std::uint64_t> compactions_{0};
  std::condition_variable compact_cv_;
  bool stop_ = false;
  std::thread compactor_;
};

ShardedIndex::ShardedIndex(const core::BackendRegistry& registry,
                           ShardedIndexOptions options)
    : impl_(std::make_unique<Impl>(registry, std::move(options))) {}

void ShardedIndex::save(const std::string& path) const { impl_->save(path); }

ShardedIndex ShardedIndex::load(const core::BackendRegistry& registry,
                                const std::string& path,
                                ShardedIndexOptions options) {
  auto loaded = core::load_index_file(path);
  // The file owns identity (which backend, how many shards); the caller's
  // options keep the operational knobs (placement, seal/compaction).
  options.backend = loaded.info.backend;
  options.shards = loaded.info.shards;
  ShardedIndex index(registry, std::move(options));
  index.impl_->install(std::move(loaded));
  return index;
}

ShardedIndex::~ShardedIndex() = default;
ShardedIndex::ShardedIndex(ShardedIndex&&) noexcept = default;
ShardedIndex& ShardedIndex::operator=(ShardedIndex&&) noexcept = default;

int ShardedIndex::num_shards() const { return impl_->options().shards; }
int ShardedIndex::stages() const { return impl_->stages(); }
int ShardedIndex::levels() const { return impl_->levels(); }
core::DigitMetric ShardedIndex::metric() const { return impl_->metric(); }
int ShardedIndex::query_tile() const { return impl_->query_tile(); }
int ShardedIndex::size() const { return impl_->pin()->rows; }

const std::string& ShardedIndex::backend_name() const {
  return impl_->options().backend;
}

Placement ShardedIndex::placement() const {
  return impl_->options().placement;
}

std::shared_ptr<const IndexSnapshot> ShardedIndex::pin() const {
  return impl_->pin();
}

int ShardedIndex::store(std::span<const int> digits) {
  return impl_->store(digits);
}

void ShardedIndex::clear() { impl_->clear(); }

std::uint64_t ShardedIndex::generation() const {
  return impl_->pin()->generation;
}

void ShardedIndex::compact_now() { impl_->compact_now(); }

std::uint64_t ShardedIndex::compactions() const {
  return impl_->compactions();
}

void ShardedIndex::set_metrics(ServingMetrics* metrics) {
  impl_->set_metrics(metrics);
}

int ShardedIndex::shard_size(int s) const {
  const auto snap = impl_->pin();
  if (s < 0 || s >= snap->num_shards())
    throw std::out_of_range("ShardedIndex::shard_size: bad shard index");
  int rows = 0;
  for (const auto& seg : snap->shards[static_cast<std::size_t>(s)])
    rows += seg->rows();
  return rows;
}

int ShardedIndex::global_row(int s, int local) const {
  const auto snap = impl_->pin();
  if (s < 0 || s >= snap->num_shards())
    throw std::out_of_range("ShardedIndex::global_row: bad shard index");
  if (local >= 0)
    for (const auto& seg : snap->shards[static_cast<std::size_t>(s)]) {
      if (local < seg->rows()) return seg->global_id(local);
      local -= seg->rows();
    }
  throw std::out_of_range("ShardedIndex::global_row: bad local row");
}

std::vector<int> ShardedIndex::row(int global) const {
  const auto snap = impl_->pin();
  if (global >= 0 && global < snap->rows)
    for (const auto& shard : snap->shards)
      for (const auto& seg : shard) {
        const int local = seg->find_global(global);
        if (local >= 0) return seg->backend().row_digits(local);
      }
  throw std::out_of_range("ShardedIndex::row: bad global row");
}

std::vector<std::vector<int>> ShardedIndex::snapshot() const {
  const auto snap = impl_->pin();
  std::vector<std::vector<int>> out(static_cast<std::size_t>(snap->rows));
  for (const auto& shard : snap->shards)
    for (const auto& seg : shard)
      for (int local = 0; local < seg->rows(); ++local)
        out[static_cast<std::size_t>(seg->global_id(local))] =
            seg->backend().row_digits(local);
  return out;
}

std::size_t ShardedIndex::resident_bytes() const {
  return impl_->pin()->resident_bytes();
}

}  // namespace tdam::runtime
