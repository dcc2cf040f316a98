// Sweep planning layer: pure expansion of a SweepConfig grid into
// (cell, run_index, seed) work items.
//
// A SweepPlan is a value — building it runs no simulation. Everything a
// run depends on (cell spec, seeds, fault plan) is a pure function of
// (config, run_index), which is what lets the runs execute in any order on
// any number of threads, or alone for a replay, with bit-identical results.
#pragma once

#include <cstddef>
#include <vector>

#include "core/sweep.hpp"

namespace paratick::core {

/// Identity of one work item, derivable without running anything.
struct SweepWorkItem {
  std::size_t run_index = 0;
  std::size_t cell = 0;
  int replica = 0;
  std::uint64_t seed = 0;
};

class SweepPlan {
 public:
  /// Resolve the grid axes against the base spec and lay out the cells in
  /// the public expansion order: variants, modes, tick freqs, vcpus,
  /// overcommit, innermost last. PARATICK_CHECKs on empty modes/repeat<1.
  [[nodiscard]] static SweepPlan make(SweepConfig cfg);

  [[nodiscard]] const SweepConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t cell_count() const { return keys_.size(); }
  [[nodiscard]] std::size_t total_runs() const {
    return keys_.size() * static_cast<std::size_t>(cfg_.repeat);
  }
  /// Cell keys in grid order; key fields come from the materialized spec,
  /// so inherited axes still export their effective values.
  [[nodiscard]] const std::vector<SweepCellKey>& cell_keys() const { return keys_; }

  /// Identity of run `i` (pure; no simulation).
  [[nodiscard]] SweepWorkItem item(std::size_t run_index) const;

  /// Execute run `run_index` with crash isolation: a sim::SimError or
  /// std::exception becomes a RunFailure record instead of propagating.
  [[nodiscard]] SweepRun execute(std::size_t run_index) const;

  /// Fresh cell summaries for this plan: keys filled, aggregates empty —
  /// the skeleton aggregate_sweep_runs() folds runs into.
  [[nodiscard]] std::vector<SweepCellSummary> make_cells() const;

 private:
  /// The per-cell slice of the grid axes, resolved against the base spec.
  struct Grid {
    std::vector<SweepVariant> variants;
    std::vector<guest::TickMode> modes;
    std::vector<double> freqs;
    std::vector<int> vcpus;
    std::vector<double> overcommit;  // single 0.0 = inherit machine
    bool freq_axis = false, vcpu_axis = false, oc_axis = false;
  };

  [[nodiscard]] ExperimentSpec spec_for_cell(std::size_t cell) const;

  SweepConfig cfg_;
  Grid grid_;
  std::vector<SweepCellKey> keys_;
};

}  // namespace paratick::core
