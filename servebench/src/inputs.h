// Seeded inputs of one benchmark run and the brute-force answers they must
// produce.
//
// Every stored row, query and written row is a pure function of the run's
// seed, so the same seed always gives the same inputs.  Rows are generated
// as 2-bit digits packed 32 to a 64-bit word (digit i sits at bits
// 2*(i%32) of word i/32): that form is both the generator's output and the
// reference scan's input.  The program under test only ever sees the digit
// vectors (through the index file and the wire).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/backend.h"

namespace servebench {

inline constexpr int kRowWords = kStages * kBits / 64;
using PackedRow = std::array<std::uint64_t, kRowWords>;

class Inputs {
 public:
  Inputs(const Workload& workload, std::uint64_t seed);

  const Workload& workload() const { return workload_; }
  int base_rows() const { return workload_.rows; }

  const PackedRow& base_packed(int row) const {
    return base_[static_cast<std::size_t>(row)];
  }
  // Row `j` of the write stream; it lands at global id base_rows() + j
  // when one writer stores the stream in order.
  PackedRow write_packed(int j) const;

  const PackedRow& query_packed(int q) const {
    return queries_[static_cast<std::size_t>(q)];
  }
  const std::vector<int>& query_digits(int q) const {
    return query_digits_[static_cast<std::size_t>(q)];
  }
  const std::vector<std::uint16_t>& query_wire(int q) const {
    return query_wire_[static_cast<std::size_t>(q)];
  }

  // Row-major wire digits of write-stream rows [first, first + count).
  std::vector<std::uint16_t> write_frame(int first, int count) const;

  // Writes the base rows as an index file of kShards segments, one per
  // shard, with round-robin ids (row r in shard r % kShards).
  void write_index_file(const std::string& path) const;

 private:
  const Workload& workload_;
  std::uint64_t seed_;
  std::vector<PackedRow> base_;
  std::vector<PackedRow> queries_;
  std::vector<std::vector<int>> query_digits_;
  std::vector<std::vector<std::uint16_t>> query_wire_;
};

std::vector<int> unpack_digits(const PackedRow& row);

// Digit positions where two rows differ.
int mismatches(const PackedRow& a, const PackedRow& b);

// One answer to check: pool query `pool`, answered against the base rows
// plus the first `written` rows of the write stream.
struct Answer {
  int pool = 0;
  int written = 0;
  std::vector<tdam::core::TopKEntry> entries;
  bool correct = false;  // set by Reference::check
};

// Brute-force top-k by (mismatch count, row), computed here from the
// generated rows and never from the program under test.
class Reference {
 public:
  explicit Reference(const Inputs& inputs);

  // Marks each answer whose (score, row) list equals the reference as
  // correct and returns the number that are not.
  long check(std::span<Answer> answers);

 private:
  using Hits = std::vector<tdam::core::TopKEntry>;
  const PackedRow& written_row(int j);

  const Inputs& inputs_;
  std::vector<Hits> base_topk_;       // per pool query, over the base rows
  std::vector<PackedRow> written_;    // write-stream rows generated so far
};

}  // namespace servebench
