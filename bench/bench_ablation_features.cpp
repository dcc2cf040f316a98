// Ablation of the paper's §6 host-feature choices: halt polling and
// pause-loop exiting were disabled in the evaluation; this bench shows
// what each feature does to the three metrics under dynticks and
// paratick, justifying that setup.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags in
// core/sweep.hpp.
#include <cstdio>

#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/parsec.hpp"

using namespace paratick;

namespace {

constexpr const char* kHaltPollNames[] = {"off", "fixed", "adaptive"};

std::string variant_name(int halt_poll, bool ple) {
  return metrics::format("hp=%s/ple=%s", kHaltPollNames[halt_poll],
                         ple ? "on" : "off");
}

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);
  cli.expect_positionals(0);

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(4);
  cfg.base.vcpus = 4;
  cfg.base.attach_disk = true;
  // Spin long enough for PLE's window to matter (lock-holder wait-out),
  // as an aggressively adaptive mutex would.
  cfg.base.guest_costs.spin_before_block = sim::Cycles{20'000};
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::install_parsec(k, workload::parsec_profile("fluidanimate"), 4);
  };
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  for (int hp : {0, 1, 2}) {
    for (bool ple : {false, true}) {
      cfg.variants.push_back(
          {variant_name(hp, ple), [hp, ple](core::ExperimentSpec& exp) {
             // hp: 0 = off, 1 = fixed window, 2 = adaptive (KVM halt_poll_ns)
             exp.host.halt_polling = hp > 0;
             exp.host.halt_poll_adaptive = hp == 2;
             exp.host.pause_loop_exiting = ple;
           }});
    }
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  cli.export_results(res, "bench_ablation_features");

  if (!cli.csv) {
    std::printf("==== Ablation: halt polling / PLE (fluidanimate, 4 vCPUs) ====\n");
    std::printf("(%zu runs, %.2fs wall on %u threads)\n\n", res.runs.size(),
                res.wall_seconds, res.threads_used);
  }
  metrics::Table t({"mode", "halt-poll", "PLE", "exits", "busy Mcycles",
                    "halt-poll Mcycles", "exec ms"});
  for (auto mode : {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick}) {
    for (int hp : {0, 1, 2}) {
      for (bool ple : {false, true}) {
        const auto* cell = res.find(variant_name(hp, ple), mode);
        const sim::Accumulator poll_mcycles = res.metric_over_runs(
            res.index_of(*cell), [](const metrics::RunResult& r) {
              return static_cast<double>(
                         r.cycles.total(hw::CycleCategory::kHaltPoll).count()) /
                     1e6;
            });
        t.add_row({std::string(guest::to_string(mode)), kHaltPollNames[hp],
                   ple ? "on" : "off", bench::mean_ci(cell->exits_total),
                   metrics::format("%.1f", cell->busy_cycles.mean() / 1e6),
                   bench::mean_ci(poll_mcycles, 1),
                   bench::mean_ci(cell->exec_time_ms, 2)});
      }
    }
  }
  if (cli.csv) {
    std::fputs(t.to_csv().c_str(), stdout);
    return 0;
  }
  t.print();
  std::printf(
      "\nHalt polling trades exits for burned CPU (paper §6: disabled because the\n"
      "polled cycles mask the effect under study); PLE adds pause exits during\n"
      "adaptive-mutex spins without helping in non-overcommitted runs.\n");
  return 0;
}
