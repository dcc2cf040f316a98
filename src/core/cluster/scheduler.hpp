// Pluggable cluster scheduling: initial VM placement plus periodic
// steal-aware rebalancing decisions.
//
// The scheduler never sees hypervisor ground truth. Its load signal is
// the guest-side steal estimate (guest/steal_estimator.hpp) sampled at
// rebalance barriers — the same information a real cloud operator gets
// from tenant kernels on hardware without a paravirtual steal clock.
// Decisions are pure functions of the views handed in, which keeps
// cluster runs bit-identical across engine-thread and -j counts.
#pragma once

#include <vector>

#include "sim/types.hpp"

namespace paratick::core {

/// One live VM's load signal at a rebalance barrier.
struct VmLoadView {
  int global_vm = 0;
  int host = 0;
  /// Guest steal estimate gained since the previous barrier (this
  /// incarnation only; resets to zero after a migration).
  sim::SimTime steal_delta;
  /// Cumulative guest steal estimate of the current incarnation.
  sim::SimTime steal_total;
};

/// A scheduler decision: move `global_vm` to `to_host`.
struct Migration {
  int global_vm = 0;
  int to_host = 0;
};

class ClusterScheduler {
 public:
  virtual ~ClusterScheduler() = default;

  /// Initial placement: host index for each of `global_vms` VMs, values
  /// in [0, hosts). Every host must receive at least one VM.
  [[nodiscard]] virtual std::vector<int> place(int hosts, int global_vms) = 0;

  /// Called at every rebalance barrier with the live VMs' load views
  /// (in-flight migrations excluded). Returned migrations are applied in
  /// order; entries naming a VM's current host are ignored.
  [[nodiscard]] virtual std::vector<Migration> rebalance(
      const std::vector<VmLoadView>& vms, int hosts) = 0;
};

/// Default policy: round-robin placement, then greedy consolidation —
/// when the most-stolen host's per-window steal exceeds the least-stolen
/// host's by `min_imbalance`, move the most-stolen VM off the hot host.
class GreedyStealScheduler final : public ClusterScheduler {
 public:
  struct Config {
    /// Minimum (hottest host − coolest host) per-window steal gap before
    /// a migration is worth its blackout + dirty-page cost.
    sim::SimTime min_imbalance = sim::SimTime::ms(1);
    int max_migrations_per_round = 1;
  };

  GreedyStealScheduler() = default;
  explicit GreedyStealScheduler(Config config) : config_(config) {}

  [[nodiscard]] std::vector<int> place(int hosts, int global_vms) override;
  [[nodiscard]] std::vector<Migration> rebalance(
      const std::vector<VmLoadView>& vms, int hosts) override;

 private:
  Config config_;
};

}  // namespace paratick::core
