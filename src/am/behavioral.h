// Calibrated closed-form TD-AM model for system-scale studies.
//
// The transient engine resolves every node voltage; that fidelity is needed
// for the circuit-level figures but is absurd for 10k-dimensional HDC
// inference over thousands of queries.  BehavioralAm applies the calibrated
// linear delay/energy model (am/calibration.h) digit-by-digit, exactly as
// the paper extrapolates its own per-chain SPICE measurements to
// application-level numbers.
//
// BehavioralAm implements core::SimilarityBackend: it is the "behavioral"
// entry of the backend registry, storing its rows in one packed
// core::DigitMatrix (16 digits per 32-bit word at the paper's 2-bit
// precision) and answering distances by XOR+popcount over the packed words.
// The digit alphabet comes from the calibration point (2^bits levels);
// store/search reject out-of-range digits rather than computing garbage.
//
// AmSystemModel additionally models a fixed-size physical array (rows x
// stages, e.g. 128 stages at 0.6 V for Fig. 8): vectors longer than one
// chain are folded across multiple passes, which is what attenuates the
// GPU speedup at high dimensionality in the paper.
#pragma once

#include <span>
#include <vector>

#include "am/calibration.h"
#include "am/tdc.h"
#include "core/backend.h"
#include "core/digit_matrix.h"

namespace tdam::am {

// One search outcome under the behavioural model.
struct BehavioralSearch {
  std::vector<int> distances;  // digitised mismatch count per stored row
  int best_row = -1;
  double latency = 0.0;        // slowest chain delay (s)
  double energy = 0.0;         // all chains (J)
};

// The (row, distance) entry and top-k result types are the backend-agnostic
// ones from core; kept under their historical names for the am-layer API.
using TopKEntry = core::TopKEntry;
using BehavioralTopK = core::BackendTopK;

class BehavioralAm final : public core::SimilarityBackend {
 public:
  // `stages` digits per stored vector; rows grow as vectors are stored.
  // `bank_rows` x `bank_stages` is the physical array geometry behind the
  // modeled query_cost() hook (defaults: the paper's Fig. 8 128x128 array).
  BehavioralAm(const CalibrationResult& cal, int stages, int bank_rows = 128,
               int bank_stages = 128);

  std::string name() const override { return "behavioral"; }
  core::DigitMetric metric() const override {
    return core::DigitMetric::kMismatchCount;
  }
  int stages() const override { return stages_; }
  int levels() const override { return matrix_.levels(); }
  int rows() const override { return matrix_.rows(); }
  const CalibrationResult& calibration() const { return cal_; }

  // Returns the new row index; validates length and digit range against the
  // calibrated level count.
  int store(std::span<const int> digits) override;
  void clear() override;
  std::vector<int> row_digits(int row) const override {
    return matrix_.unpack_row(row);
  }

  BehavioralSearch search(std::span<const int> query) const;

  // k-NN search (core::SimilarityBackend contract), one query at a time:
  // per query, the min(k, rows) nearest stored rows by digitised distance,
  // sorted by (distance, row).  The mismatch counts come from one
  // kernel-layer batch call over the packed store; the calibrated
  // delay/energy/TDC model is applied per row on top.  The physical array
  // still fires every chain — only the TDC readout keeps k winners — so
  // latency and energy match `search` exactly.  Every result carries native
  // modeled latency/energy, so there is no pure-software tiled scan to
  // route through and query_tile() stays 1.
  std::vector<BehavioralTopK> search_topk_packed_batch(
      const core::DigitMatrix& queries, int first, int count,
      int k) const override;

  // mmap-load support: swap in a pre-packed store wholesale (geometry is
  // validated; calibration and bank model are unchanged).
  void adopt_matrix(core::DigitMatrix matrix) override {
    core::check_adopt_geometry(*this, matrix, "BehavioralAm::adopt_matrix");
    matrix_ = std::move(matrix);
  }
  const core::DigitMatrix* packed_view() const override { return &matrix_; }

  // Modeled cost of one query over the stored rows on the configured
  // physical bank (AmSystemModel pass folding applied).
  core::QueryCost query_cost(double mismatch_fraction) const override;

  std::size_t resident_bytes() const override {
    return matrix_.resident_bytes();
  }

  // Delay/energy of a single chain at a mismatch count (model evaluation).
  double chain_delay(int mismatches) const;
  double chain_energy(int mismatches) const;

 private:
  CalibrationResult cal_;
  int stages_;
  int bank_rows_;
  int bank_stages_;
  core::DigitMatrix matrix_;
  TimeDigitalConverter tdc_;
};

// Fixed-hardware system model: an array of `rows x stages` cells operated at
// the calibration point.  Computes per-query latency/energy for similarity
// search over vectors of arbitrary digit count (folded across passes).
class AmSystemModel {
 public:
  struct Cost {
    double latency = 0.0;  // s per query (batch of `classes` comparisons)
    double energy = 0.0;   // J per query
    int passes = 0;        // sequential array passes needed
  };

  AmSystemModel(const CalibrationResult& cal, int rows, int stages);

  // Cost of comparing one query of `digits` digits against `vectors` stored
  // vectors, assuming an average digit-mismatch fraction (random hyper-
  // vectors mismatch with probability 1 - 2^-bits).
  //
  // `encoder_features` > 0 additionally charges the digital random-
  // projection frontend that turns a raw `encoder_features`-wide sample into
  // the query hypervector (features x digits MACs at `encoder_mac_energy`).
  // The encoder is assumed pipelined with the array (its latency is hidden
  // at steady state) but its energy dominates the whole-query budget — this
  // is what brings the AM-vs-GPU energy ratio from the raw-array 1e7x down
  // to the paper's 1e3-1e4x regime.
  Cost query_cost(int digits, int vectors, double mismatch_fraction,
                  int encoder_features = 0) const;

  // Full search-cycle time for one pass (precharge + settle for both steps
  // plus the worst-case chain delay and TDC).
  double pass_cycle_time() const;

  int rows() const { return rows_; }
  int stages() const { return stages_; }

  // Overhead knobs (defaults are first-order 40 nm-class estimates).
  double tdc_energy_per_tick = 0.8e-15;  // J per counter increment
  double t_precharge = 0.4e-9;           // s, per step
  double t_settle = 0.6e-9;              // s, per step
  double adder_energy_per_partial = 30e-15;  // digital partial-sum add (J)
  // Energy per MAC of the digital encoding frontend, including its weight
  // fetches (40 nm-class fixed-point datapath).
  double encoder_mac_energy = 0.4e-12;

 private:
  CalibrationResult cal_;
  int rows_;
  int stages_;
};

}  // namespace tdam::am
