#include "inputs.h"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>

#include "core/digit_matrix.h"
#include "core/index_io.h"

namespace servebench {
namespace {

// SplitMix64: the benchmark's own generator, so its inputs never change
// when the library's RNG does.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Independent stream per (seed, kind, index): any row can be regenerated
// on its own.
std::uint64_t stream_state(std::uint64_t seed, std::uint64_t kind,
                           std::uint64_t index) {
  std::uint64_t s = seed ^ (kind << 56);
  splitmix(s);
  s ^= index * 0xd1b54a32d192ed03ULL;
  splitmix(s);
  return s;
}

PackedRow random_row(std::uint64_t state) {
  PackedRow row{};
  for (auto& w : row) w = splitmix(state);
  return row;
}

int digit_at(const PackedRow& row, int i) {
  return static_cast<int>(
      (row[static_cast<std::size_t>(i / 32)] >> (2 * (i % 32))) & 3u);
}

void set_digit(PackedRow& row, int i, int d) {
  auto& w = row[static_cast<std::size_t>(i / 32)];
  const int shift = 2 * (i % 32);
  w = (w & ~(std::uint64_t{3} << shift)) |
      (static_cast<std::uint64_t>(d) << shift);
}

constexpr std::uint64_t kStreamBase = 1, kStreamQuery = 2, kStreamWrite = 3;

// Each query is a stored row with 30% of its digits redrawn, so its nearest
// row is clear of the random background (~192 mismatches).
constexpr double kQueryNoise = 0.3;

// Keeps the k best (score, row) hits, ascending.
class TopK {
 public:
  explicit TopK(int k) : k_(static_cast<std::size_t>(k)) {}
  explicit TopK(int k, std::vector<tdam::core::TopKEntry> hits)
      : k_(static_cast<std::size_t>(k)), hits_(std::move(hits)) {}

  void offer(int row, int score) {
    const tdam::core::TopKEntry hit{row, static_cast<double>(score)};
    const tdam::core::ScoreComparator before{};
    if (hits_.size() == k_ && !before(hit, hits_.back())) return;
    hits_.insert(std::upper_bound(hits_.begin(), hits_.end(), hit, before),
                 hit);
    if (hits_.size() > k_) hits_.pop_back();
  }
  const std::vector<tdam::core::TopKEntry>& hits() const { return hits_; }

 private:
  std::size_t k_;
  std::vector<tdam::core::TopKEntry> hits_;
};

}  // namespace

std::vector<int> unpack_digits(const PackedRow& row) {
  std::vector<int> digits(kStages);
  for (int i = 0; i < kStages; ++i)
    digits[static_cast<std::size_t>(i)] = digit_at(row, i);
  return digits;
}

int mismatches(const PackedRow& a, const PackedRow& b) {
  int n = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    const std::uint64_t x = a[w] ^ b[w];
    n += std::popcount((x | (x >> 1)) & 0x5555555555555555ULL);
  }
  return n;
}

Inputs::Inputs(const Workload& workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  base_.reserve(static_cast<std::size_t>(workload.rows));
  for (int r = 0; r < workload.rows; ++r)
    base_.push_back(
        random_row(stream_state(seed, kStreamBase, static_cast<std::uint64_t>(r))));
  for (int q = 0; q < kPool; ++q) {
    std::uint64_t state =
        stream_state(seed, kStreamQuery, static_cast<std::uint64_t>(q));
    PackedRow row = base_[splitmix(state) % base_.size()];
    for (int i = 0; i < kStages; ++i) {
      const double u =
          static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
      if (u < kQueryNoise)
        set_digit(row, i, static_cast<int>(splitmix(state) & 3u));
    }
    queries_.push_back(row);
    query_digits_.push_back(unpack_digits(row));
    query_wire_.emplace_back(query_digits_.back().begin(),
                             query_digits_.back().end());
  }
}

PackedRow Inputs::write_packed(int j) const {
  return random_row(
      stream_state(seed_, kStreamWrite, static_cast<std::uint64_t>(j)));
}

std::vector<std::uint16_t> Inputs::write_frame(int first, int count) const {
  std::vector<std::uint16_t> out;
  out.reserve(static_cast<std::size_t>(count) * kStages);
  for (int j = first; j < first + count; ++j) {
    const PackedRow row = write_packed(j);
    for (int i = 0; i < kStages; ++i)
      out.push_back(static_cast<std::uint16_t>(digit_at(row, i)));
  }
  return out;
}

void Inputs::write_index_file(const std::string& path) const {
  std::vector<tdam::core::DigitMatrix> matrices;
  std::vector<std::vector<int>> ids(kShards);
  for (int s = 0; s < kShards; ++s) matrices.emplace_back(kStages, kLevels);
  for (int r = 0; r < base_rows(); ++r) {
    matrices[static_cast<std::size_t>(r % kShards)].append(
        unpack_digits(base_packed(r)));
    ids[static_cast<std::size_t>(r % kShards)].push_back(r);
  }
  std::vector<tdam::core::SavedSegment> segments;
  for (int s = 0; s < kShards; ++s) {
    const auto& m = matrices[static_cast<std::size_t>(s)];
    segments.push_back(
        {s, ids[static_cast<std::size_t>(s)],
         {m.words_data(), static_cast<std::size_t>(m.rows()) *
                              static_cast<std::size_t>(m.words_per_row())}});
  }
  tdam::core::save_index_file(
      path,
      {workload_.backend, kStages, kLevels, kShards,
       static_cast<std::uint64_t>(base_rows())},
      segments);
}

Reference::Reference(const Inputs& inputs) : inputs_(inputs) {
  const int k = inputs.workload().k;
  for (int q = 0; q < kPool; ++q) {
    TopK best(k);
    const PackedRow& query = inputs.query_packed(q);
    for (int r = 0; r < inputs.base_rows(); ++r)
      best.offer(r, mismatches(query, inputs.base_packed(r)));
    base_topk_.push_back(best.hits());
  }
}

const PackedRow& Reference::written_row(int j) {
  while (static_cast<int>(written_.size()) <= j)
    written_.push_back(inputs_.write_packed(static_cast<int>(written_.size())));
  return written_[static_cast<std::size_t>(j)];
}

long Reference::check(std::span<Answer> answers) {
  // Per pool query, walk its answers in `written` order so the write-stream
  // rows are scanned once per query, not once per answer.
  std::map<int, std::vector<Answer*>> by_pool;
  for (auto& a : answers) {
    if (a.pool < 0 || a.pool >= kPool || a.written < 0)
      throw std::invalid_argument("Reference: answer out of range");
    by_pool[a.pool].push_back(&a);
  }
  const int k = inputs_.workload().k;
  long wrong = 0;
  for (auto& [pool, list] : by_pool) {
    std::sort(list.begin(), list.end(), [](Answer* a, Answer* b) {
      return a->written < b->written;
    });
    TopK best(k, base_topk_[static_cast<std::size_t>(pool)]);
    const PackedRow& query = inputs_.query_packed(pool);
    int scanned = 0;
    for (Answer* a : list) {
      for (; scanned < a->written; ++scanned)
        best.offer(inputs_.base_rows() + scanned,
                   mismatches(query, written_row(scanned)));
      a->correct = a->entries == best.hits();
      if (!a->correct) ++wrong;
    }
  }
  return wrong;
}

}  // namespace servebench
