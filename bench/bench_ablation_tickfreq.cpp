// Ablation of §4.1's frequency-mismatch handling — the feature the paper
// left as future work ("if the host tick frequency is a multiple of that
// of the guest, no further actions are needed; if not, the host should
// program the guest preemption timer").
//
// Sweeps the host tick frequency against a 250 Hz guest and reports the
// virtual-tick rate the guest actually receives plus the exit cost of
// the auxiliary preemption timer.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags in
// core/sweep.hpp. Note the sweep grid's tick_freqs_hz axis varies the
// *guest* frequency; the host frequency under study here is a variant.
#include <cstdio>

#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/micro.hpp"

using namespace paratick;

namespace {

constexpr double kHostHz[] = {100.0, 250.0, 300.0, 500.0, 625.0, 1000.0};

std::string variant_name(double host_hz) {
  return metrics::format("host=%gHz", host_hz);
}

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);
  cli.expect_positionals(0);

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.max_duration = sim::SimTime::sec(2);
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::PureComputeSpec spec;
    spec.total_cycles = 4'000'000'000;  // saturate the 2 s window
    spec.chunks = 4000;
    workload::install_pure_compute(k, spec);
  };
  cfg.modes = {guest::TickMode::kParatick};
  for (const double host_hz : kHostHz) {
    cfg.variants.push_back(
        {variant_name(host_hz), [host_hz](core::ExperimentSpec& exp) {
           exp.host.host_tick_freq = sim::Frequency{host_hz};
         }});
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  cli.export_results(res, "bench_ablation_tickfreq");

  if (!cli.csv) {
    std::printf("==== Ablation: host/guest tick-frequency mismatch (guest 250 Hz) ====\n");
    std::printf("(%zu runs, %.2fs wall on %u threads)\n\n", res.runs.size(),
                res.wall_seconds, res.threads_used);
  }
  metrics::Table t({"host Hz", "compatible", "virtual ticks/s", "aux-timer exits",
                    "timer exits", "total exits"});
  for (const double host_hz : kHostHz) {
    const auto* cell = res.find(variant_name(host_hz), guest::TickMode::kParatick);
    const std::size_t idx = res.index_of(*cell);
    const sim::Accumulator vticks_per_s = res.metric_over_runs(
        idx, [](const metrics::RunResult& r) {
          return static_cast<double>(r.vms[0].policy.virtual_ticks) /
                 r.wall.seconds();
        });
    const sim::Accumulator aux_exits = res.metric_over_runs(
        idx, [](const metrics::RunResult& r) {
          return r.exits_by_cause[static_cast<std::size_t>(
              hw::ExitCause::kAuxParatickTimer)];
        });
    const std::int64_t host_p = sim::Frequency{host_hz}.period().nanoseconds();
    const std::int64_t guest_p = sim::Frequency{250.0}.period().nanoseconds();
    const bool compatible = host_p <= guest_p && guest_p % host_p == 0;
    t.add_row({metrics::format("%.0f", host_hz), compatible ? "yes" : "no",
               bench::mean_ci(vticks_per_s, 1), bench::mean_ci(aux_exits),
               bench::mean_ci(cell->exits_timer),
               bench::mean_ci(cell->exits_total)});
  }
  if (cli.csv) {
    std::fputs(t.to_csv().c_str(), stdout);
    return 0;
  }
  t.print();
  std::printf(
      "\nCompatible hosts deliver ~250 virtual ticks/s for free (piggybacking on\n"
      "host-tick exits); incompatible hosts fall back to the auxiliary preemption\n"
      "timer, costing roughly one extra exit per guest tick — the same price a\n"
      "vanilla guest pays to run its own tick (§4.1).\n");
  return 0;
}
