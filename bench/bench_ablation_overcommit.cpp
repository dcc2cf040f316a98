// Ablation of §3.1's overcommit claim: with physical CPUs time-shared
// between vCPUs, periodic-tick guests drown the host in exits for idle
// vCPUs. Sweeps the VM count (8 pCPUs, 8-vCPU copies, so overcommit =
// copies) with mostly-idle sync VMs and reports exits and useful-work
// throughput for the three policies.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags in
// core/sweep.hpp. The grid key's overcommit column is derived from the
// materialized spec, so the exported rows self-describe the ratio.
#include <cstdio>

#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/micro.hpp"

using namespace paratick;

namespace {

constexpr int kVmCounts[] = {1, 2, 3, 4};

std::string variant_name(int vms) { return metrics::format("vms=%d", vms); }

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);
  cli.expect_positionals(0);

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(8);
  cfg.base.vcpus = 8;
  cfg.base.max_duration = sim::SimTime::sec(2);
  cfg.base.stop_when_done = false;
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::SyncStormSpec storm;
    storm.threads = 8;
    storm.sync_rate_hz = 200.0;
    storm.duration = sim::SimTime::sec(2);
    storm.load = 0.2;  // mostly idle: the consolidation case of §3.1
    workload::install_sync_storm(k, storm);
  };
  cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
               guest::TickMode::kParatick};
  for (const int vms : kVmCounts) {
    // 8N vCPUs on 8 pCPUs: >1 copy auto-upgrades the host to shared
    // scheduling (see ScenarioSpec::sched_mode).
    cfg.variants.push_back({variant_name(vms), [vms](core::ExperimentSpec& exp) {
                              exp.scenario.vm_copies = vms;
                            }});
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  cli.export_results(res, "bench_ablation_overcommit");

  if (!cli.csv) {
    std::printf("==== Ablation: overcommit (8 pCPUs, 8-vCPU VMs at 20%% load) ====\n");
    std::printf("(%zu runs, %.2fs wall on %u threads)\n\n", res.runs.size(),
                res.wall_seconds, res.threads_used);
  }
  metrics::Table t({"VMs", "overcommit", "policy", "total exits", "useful Mcycles"});
  for (const int vms : kVmCounts) {
    for (auto mode : {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
                      guest::TickMode::kParatick}) {
      const auto* cell = res.find(variant_name(vms), mode);
      const sim::Accumulator useful = res.metric_over_runs(
          res.index_of(*cell), [](const metrics::RunResult& r) {
            return static_cast<double>(
                       r.cycles.total(hw::CycleCategory::kGuestUser).count()) /
                   1e6;
          });
      t.add_row({metrics::format("%d", vms), metrics::format("%dx", vms),
                 std::string(guest::to_string(mode)),
                 bench::mean_ci(cell->exits_total), bench::mean_ci(useful, 1)});
    }
  }
  if (cli.csv) {
    std::fputs(t.to_csv().c_str(), stdout);
    return 0;
  }
  t.print();
  std::printf("\nPeriodic exits grow linearly with the VM count while useful cycles\n"
              "stay flat; paratick's exit count is load-, not tick-, driven (§3.1).\n");
  return 0;
}
