#include "am/behavioral.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/kernels/kernels.h"

namespace tdam::am {

namespace {
TimeDigitalConverter tdc_for(const CalibrationResult& cal, int stages) {
  return TimeDigitalConverter(cal.predict_delay(stages, 0), cal.d_c, stages);
}

int levels_for(const CalibrationResult& cal) {
  if (cal.bits < 1 || cal.bits > 8)
    throw std::invalid_argument(
        "BehavioralAm: calibration carries no valid digit precision");
  return 1 << cal.bits;
}
}  // namespace

BehavioralAm::BehavioralAm(const CalibrationResult& cal, int stages,
                           int bank_rows, int bank_stages)
    : cal_(cal),
      stages_(stages),
      bank_rows_(bank_rows),
      bank_stages_(bank_stages),
      matrix_(stages, levels_for(cal)),
      tdc_(tdc_for(cal, stages)) {
  if (stages < 1) throw std::invalid_argument("BehavioralAm: stages must be >= 1");
  if (bank_rows < 1 || bank_stages < 1)
    throw std::invalid_argument("BehavioralAm: bank geometry must be >= 1");
}

int BehavioralAm::store(std::span<const int> digits) {
  // DigitMatrix rejects wrong lengths and digits outside the calibrated
  // [0, 2^bits) alphabet.
  return matrix_.append(digits);
}

void BehavioralAm::clear() { matrix_.clear(); }

double BehavioralAm::chain_delay(int mismatches) const {
  return cal_.predict_delay(stages_, mismatches);
}

double BehavioralAm::chain_energy(int mismatches) const {
  return cal_.predict_energy(stages_, mismatches);
}

BehavioralSearch BehavioralAm::search(std::span<const int> query) const {
  const auto packed = matrix_.pack(query);  // validates length and range
  BehavioralSearch out;
  const auto rows = static_cast<std::size_t>(matrix_.rows());
  std::vector<std::int32_t> mismatches(rows);
  core::kernels::mismatch_count_batch(matrix_, packed, mismatches);
  out.distances.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const int mis = mismatches[r];
    // The physical chain reports the TDC-digitised delay; at nominal
    // calibration this equals the true mismatch count.
    const double delay = cal_.predict_delay(stages_, mis);
    out.distances.push_back(tdc_.convert(delay));
    out.latency = std::max(out.latency, delay);
    out.energy += cal_.predict_energy(stages_, mis);
  }
  if (!out.distances.empty()) {
    const auto it = std::min_element(out.distances.begin(), out.distances.end());
    out.best_row = static_cast<int>(it - out.distances.begin());
  }
  return out;
}

std::vector<BehavioralTopK> BehavioralAm::search_topk_packed_batch(
    const core::DigitMatrix& queries, int first, int count, int k) const {
  if (k < 1)
    throw std::invalid_argument(
        "BehavioralAm::search_topk_packed_batch: k must be >= 1");
  if (queries.bits_per_digit() != matrix_.bits_per_digit())
    throw std::invalid_argument(
        "BehavioralAm::search_topk_packed_batch: queries pack " +
        std::to_string(queries.bits_per_digit()) + "-bit fields, rows " +
        std::to_string(matrix_.bits_per_digit()) + "-bit fields");
  if (first < 0 || count < 0 || first + count > queries.rows())
    throw std::invalid_argument(
        "BehavioralAm::search_topk_packed_batch: query range [" +
        std::to_string(first) + ", " + std::to_string(first + count) +
        ") outside the batch's " + std::to_string(queries.rows()) + " rows");
  const auto rows = static_cast<std::size_t>(matrix_.rows());
  std::vector<std::int32_t> mismatches(rows);
  std::vector<BehavioralTopK> out(static_cast<std::size_t>(count));
  for (int q = 0; q < count; ++q) {
    // One row-blocked kernel batch call over the packed store (validates
    // the packed word count); the calibrated model maps counts to
    // delay/energy.
    core::kernels::mismatch_count_batch(matrix_, queries.row_words(first + q),
                                        mismatches);
    auto& top = out[static_cast<std::size_t>(q)];
    top.entries.reserve(rows);
    long sum = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const int mis = mismatches[r];
      const double delay = cal_.predict_delay(stages_, mis);
      const int dist = tdc_.convert(delay);
      top.entries.push_back({static_cast<int>(r), static_cast<double>(dist)});
      sum += dist;
      top.latency = std::max(top.latency, delay);
      top.energy += cal_.predict_energy(stages_, mis);
    }
    if (rows > 0)
      top.mean_score = static_cast<double>(sum) / static_cast<double>(rows);
    const auto keep = std::min<std::size_t>(static_cast<std::size_t>(k), rows);
    std::partial_sort(top.entries.begin(),
                      top.entries.begin() + static_cast<std::ptrdiff_t>(keep),
                      top.entries.end(),
                      core::ScoreComparator{core::ScoreOrder::kAscending});
    top.entries.resize(keep);
  }
  return out;
}

core::QueryCost BehavioralAm::query_cost(double mismatch_fraction) const {
  if (mismatch_fraction < 0.0 || mismatch_fraction > 1.0)
    throw std::invalid_argument(
        "BehavioralAm::query_cost: mismatch fraction must be in [0, 1]");
  core::QueryCost out;
  if (matrix_.rows() == 0) return out;
  const AmSystemModel bank(cal_, bank_rows_, bank_stages_);
  const auto cost =
      bank.query_cost(stages_, matrix_.rows(), mismatch_fraction);
  out.latency = cost.latency;
  out.energy = cost.energy;
  out.passes = cost.passes;
  return out;
}

AmSystemModel::AmSystemModel(const CalibrationResult& cal, int rows, int stages)
    : cal_(cal), rows_(rows), stages_(stages) {
  if (rows < 1 || stages < 1)
    throw std::invalid_argument("AmSystemModel: rows/stages must be >= 1");
}

double AmSystemModel::pass_cycle_time() const {
  const double worst_delay = cal_.predict_delay(stages_, stages_);
  return 2.0 * (t_precharge + t_settle) + worst_delay;
}

AmSystemModel::Cost AmSystemModel::query_cost(int digits, int vectors,
                                              double mismatch_fraction,
                                              int encoder_features) const {
  if (digits < 1 || vectors < 1)
    throw std::invalid_argument("AmSystemModel: digits/vectors must be >= 1");
  Cost cost;
  // Each stored vector occupies ceil(digits/stages) chain segments; the
  // array processes `rows_` segments per pass.
  const int segments_per_vector =
      (digits + stages_ - 1) / stages_;
  const long total_segments =
      static_cast<long>(segments_per_vector) * static_cast<long>(vectors);
  cost.passes = static_cast<int>((total_segments + rows_ - 1) / rows_);
  cost.latency = static_cast<double>(cost.passes) * pass_cycle_time();

  // Energy: every stored digit is compared once per query.
  const double mis_digits =
      mismatch_fraction * static_cast<double>(digits) * static_cast<double>(vectors);
  const double total_digits = static_cast<double>(digits) * static_cast<double>(vectors);
  cost.energy = total_digits * (cal_.e_stage) + mis_digits * cal_.e_mismatch;
  // TDC and partial-sum accumulation per segment.
  const double avg_mis_per_segment =
      mismatch_fraction * static_cast<double>(stages_);
  cost.energy += static_cast<double>(total_segments) *
                 (avg_mis_per_segment * tdc_energy_per_tick +
                  adder_energy_per_partial);
  // Digital encoding frontend (pipelined: energy only, latency hidden).
  if (encoder_features > 0) {
    cost.energy += static_cast<double>(encoder_features) *
                   static_cast<double>(digits) * encoder_mac_energy;
  }
  return cost;
}

}  // namespace tdam::am
