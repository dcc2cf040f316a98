#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "core/cli_parse.hpp"
#include "core/history.hpp"
#include "core/replay.hpp"
#include "core/safe_io.hpp"
#include "core/scenarios.hpp"
#include "core/sweep_plan.hpp"
#include "core/thread_pool.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core {

namespace {

double pct_ratio(double treatment, double baseline) {
  if (baseline == 0.0) return 0.0;
  return (treatment / baseline - 1.0) * 100.0;
}

/// Fail-fast record: the --max-failures budget was already spent when this
/// run's turn came. Aggregation counts it in replicas_skipped.
SweepRun skipped_run(const SweepPlan& plan, std::size_t run_index) {
  const SweepWorkItem w = plan.item(run_index);
  SweepRun out;
  out.run_index = w.run_index;
  out.cell = w.cell;
  out.replica = w.replica;
  out.seed = w.seed;
  out.ok = false;
  RunFailure f;
  f.kind = RunFailure::Kind::kSkipped;
  f.message = "skipped: --max-failures budget spent";
  out.failure = std::move(f);
  return out;
}

void progress_line(const SweepPlan& plan, const SweepRun& run,
                   std::size_t finished, std::size_t total) {
  std::fprintf(stderr, "[sweep %zu/%zu] %s r%d seed=%016llx %.2fs%s%s\n",
               finished, total, plan.cell_keys()[run.cell].label().c_str(),
               run.replica, static_cast<unsigned long long>(run.seed),
               run.host_seconds, run.ok ? "" : " FAIL:",
               run.ok ? "" : RunFailure::kind_name(run.failure->kind));
}

}  // namespace

const char* RunFailure::kind_name(Kind k) {
  switch (k) {
    case Kind::kCheck: return "check";
    case Kind::kWatchdog: return "watchdog";
    case Kind::kTimeout: return "timeout";
    case Kind::kException: return "exception";
    case Kind::kSkipped: return "skipped";
    case Kind::kDivergence: return "divergence";
  }
  return "?";
}

std::string SweepCellKey::label() const {
  std::string out = variant.empty() ? "base" : variant;
  out += '/';
  out += guest::to_string(mode);
  out += metrics::format(" f=%gHz v=%d", tick_freq_hz, vcpus);
  if (overcommit > 0.0) out += metrics::format(" oc=%g", overcommit);
  return out;
}

void aggregate_sweep_runs(SweepResult& res) {
  // Fold strictly in run-index order so replica merges are deterministic
  // for any thread count. Failed replicas only bump the degradation
  // counters; every mean/histogram covers survivors only.
  for (const SweepRun& r : res.runs) {
    SweepCellSummary& cell = res.cells[r.cell];
    if (!r.ok) {
      if (r.failure && r.failure->kind == RunFailure::Kind::kSkipped) {
        ++cell.replicas_skipped;
      } else {
        ++cell.replicas_failed;
        if (r.failure && r.failure->kind == RunFailure::Kind::kTimeout) {
          ++cell.replicas_timed_out;
        }
      }
      continue;
    }
    cell.exits_total.add(static_cast<double>(r.result.exits_total));
    cell.exits_timer.add(static_cast<double>(r.result.exits_timer_related));
    cell.busy_cycles.add(static_cast<double>(r.result.busy_cycles().count()));
    if (const auto ct = r.result.completion_time()) {
      cell.exec_time_ms.add(ct->milliseconds());
    }
    sim::SimTime run_steal = sim::SimTime::zero();
    sim::SimTime run_est_err = sim::SimTime::zero();
    bool has_estimate = false;
    for (const auto& vm : r.result.vms) {
      cell.wakeup_latency_us.merge(vm.wakeup_latency_us);
      cell.wake_hist_us.merge(vm.wakeup_latency_hist_us);
      run_steal += vm.steal_time;
      if (vm.steal_estimate) {
        has_estimate = true;
        run_est_err += *vm.steal_estimate - vm.steal_time;
      }
    }
    cell.steal_ms.add(run_steal.milliseconds());
    if (has_estimate) cell.steal_est_err_ms.add(run_est_err.milliseconds());
    cell.events_executed.add(static_cast<double>(r.result.events_executed));
    cell.cb_spills.add(static_cast<double>(r.result.callback_spills));
    cell.cb_spill_bytes.add(static_cast<double>(r.result.callback_spill_bytes));
    cell.slot_high_water.add(static_cast<double>(r.result.slot_high_water));
    cell.compactions.add(static_cast<double>(r.result.queue_compactions));
    cell.par_windows.add(static_cast<double>(r.result.par_windows));
    cell.par_windows_skipped.add(
        static_cast<double>(r.result.par_windows_skipped));
    cell.par_barriers_elided.add(
        static_cast<double>(r.result.par_barriers_elided));
    cell.par_horizon_max_ns.add(
        static_cast<double>(r.result.par_horizon_max_ns));
    // First *surviving* replica — identical to replica 0 when nothing fails.
    if (cell.exits_total.count() == 1) cell.first = r.result;
  }
}

SweepRunner::SweepRunner(SweepConfig cfg) : cfg_(std::move(cfg)) {
  PARATICK_CHECK_MSG(cfg_.repeat >= 1, "sweep repeat must be >= 1");
}

std::size_t SweepRunner::cell_count() const {
  return SweepPlan::make(cfg_).cell_count();
}

std::size_t SweepRunner::total_runs() const {
  return SweepPlan::make(cfg_).total_runs();
}

SweepResult SweepRunner::run() const {
  const SweepPlan plan = SweepPlan::make(cfg_);

  SweepResult res;
  res.cells = plan.make_cells();
  res.runs.resize(plan.total_runs());
  res.threads_used = cfg_.threads == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : cfg_.threads;

  std::mutex progress_mu;
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> failures{0};
  const std::size_t total = res.runs.size();

  const auto sweep_start = std::chrono::steady_clock::now();
  parallel_for_index(total, res.threads_used, [&](std::size_t i) {
    SweepRun& out = res.runs[i];
    // Fail-fast: once the failure budget is spent, remaining runs become
    // kSkipped records (which runs get skipped is scheduling-dependent; the
    // flag trades -j-bit-identity for wall-clock on broken builds).
    if (cfg_.max_failures > 0 &&
        failures.load(std::memory_order_relaxed) >= cfg_.max_failures) {
      out = skipped_run(plan, i);
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    out = plan.execute(i);
    out.host_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!out.ok) failures.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.progress) {
      const std::size_t finished = done.fetch_add(1) + 1;
      std::scoped_lock lock(progress_mu);
      progress_line(plan, out, finished, total);
    }
  });
  res.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - sweep_start)
                         .count();

  aggregate_sweep_runs(res);

  // Replay bundles for real failures, written in run-index order so bundle
  // file names are deterministic.
  if (!cfg_.failure_dir.empty()) {
    for (SweepRun& r : res.runs) {
      if (r.ok || !r.failure || r.failure->kind == RunFailure::Kind::kSkipped) {
        continue;
      }
      r.bundle_path = write_replay_bundle(cfg_, r, cfg_.failure_dir,
                                          res.cells[r.cell].key.label());
      if (cfg_.progress) {
        std::fprintf(stderr, "sweep: replay bundle -> %s\n", r.bundle_path.c_str());
      }
    }
  }
  return res;
}

SweepRun SweepRunner::execute_run(std::size_t run_index) const {
  const SweepPlan plan = SweepPlan::make(cfg_);
  PARATICK_CHECK_MSG(run_index < plan.total_runs(),
                     "execute_run: index out of range");
  return plan.execute(run_index);
}

const SweepCellSummary* SweepResult::find(const std::string& variant,
                                          guest::TickMode mode) const {
  for (const auto& cell : cells) {
    if (cell.key.variant == variant && cell.key.mode == mode) return &cell;
  }
  return nullptr;
}

std::vector<const SweepRun*> SweepResult::failed_runs() const {
  std::vector<const SweepRun*> out;
  for (const auto& r : runs) {
    if (!r.ok && r.failure &&
        r.failure->kind != RunFailure::Kind::kSkipped) {
      out.push_back(&r);
    }
  }
  return out;
}

std::size_t SweepResult::ok_run_count() const {
  std::size_t n = 0;
  for (const auto& r : runs) {
    if (r.ok) ++n;
  }
  return n;
}

std::size_t SweepResult::degraded_cell_count() const {
  std::size_t n = 0;
  for (const auto& cell : cells) {
    if (cell.degraded()) ++n;
  }
  return n;
}

metrics::Comparison SweepResult::compare_cells(const SweepCellSummary& baseline,
                                               const SweepCellSummary& treatment) {
  metrics::Comparison c;
  c.exit_delta_pct = pct_ratio(treatment.exits_total.mean(), baseline.exits_total.mean());
  c.timer_exit_delta_pct =
      pct_ratio(treatment.exits_timer.mean(), baseline.exits_timer.mean());
  const double treat_busy = treatment.busy_cycles.mean();
  c.throughput_gain_pct =
      treat_busy > 0.0 ? (baseline.busy_cycles.mean() / treat_busy - 1.0) * 100.0 : 0.0;
  if (baseline.exec_time_ms.count() > 0 && treatment.exec_time_ms.count() > 0) {
    c.exec_time_delta_pct =
        pct_ratio(treatment.exec_time_ms.mean(), baseline.exec_time_ms.mean());
  }
  return c;
}

metrics::Comparison SweepResult::compare(const std::string& variant,
                                         guest::TickMode baseline,
                                         guest::TickMode treatment) const {
  const SweepCellSummary* base = find(variant, baseline);
  const SweepCellSummary* treat = find(variant, treatment);
  PARATICK_CHECK_MSG(base != nullptr && treat != nullptr,
                     "compare(): no such variant/mode cell in sweep");
  return compare_cells(*base, *treat);
}

std::string SweepResult::to_csv() const {
  std::string out =
      "variant,mode,tick_freq_hz,vcpus,overcommit,replicas,"
      "exits_mean,exits_stddev,timer_exits_mean,timer_exits_stddev,"
      "busy_mcycles_mean,busy_mcycles_stddev,exec_ms_mean,exec_ms_stddev,"
      "wake_us_mean,wake_us_max,steal_ms_mean,steal_est_err_ms_mean,"
      "failed,timed_out\n";
  for (const auto& cell : cells) {
    // Variant names come from user code (benchmark labels, device names)
    // and may carry commas/quotes/newlines — escape per RFC 4180.
    out += metrics::csv_field(cell.key.variant.empty() ? "base" : cell.key.variant);
    out += ',';
    out += metrics::csv_field(std::string(guest::to_string(cell.key.mode)));
    out += metrics::format(
        ",%g,%d,%g,%llu,%.0f,%.1f,%.0f,%.1f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,"
        "%.3f,%.3f,%llu,%llu\n",
        cell.key.tick_freq_hz, cell.key.vcpus, cell.key.overcommit,
        static_cast<unsigned long long>(cell.exits_total.count()),
        cell.exits_total.mean(), cell.exits_total.stddev(),
        cell.exits_timer.mean(), cell.exits_timer.stddev(),
        cell.busy_cycles.mean() / 1e6, cell.busy_cycles.stddev() / 1e6,
        cell.exec_time_ms.mean(), cell.exec_time_ms.stddev(),
        cell.wakeup_latency_us.mean(), cell.wakeup_latency_us.max(),
        cell.steal_ms.mean(), cell.steal_est_err_ms.mean(),
        static_cast<unsigned long long>(cell.replicas_failed),
        static_cast<unsigned long long>(cell.replicas_timed_out));
  }
  return out;
}

std::string SweepResult::to_json() const {
  // Deliberately no wall_seconds/threads here: the export is a pure
  // function of the cells, so every -j value produces a byte-identical
  // document (asserted in test_sweep and the CI determinism smoke).
  std::string out = "{\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cell = cells[i];
    out += metrics::format(
        "    {\"variant\": \"%s\", \"mode\": \"%s\", \"tick_freq_hz\": %g, "
        "\"vcpus\": %d, \"overcommit\": %g, \"replicas\": %llu, "
        "\"failed\": %llu, \"timed_out\": %llu, \"skipped\": %llu, "
        "\"exits\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"timer_exits\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"busy_cycles\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"exec_ms\": {\"mean\": %.4f, \"stddev\": %.4f, \"n\": %llu}, "
        "\"wake_us\": {\"mean\": %.4f, \"stddev\": %.4f, \"max\": %.4f, \"n\": %llu}, "
        // Engine self-profile: deterministic counters only (engine wall
        // time would break the byte-identity of this export).
        "\"events\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"cb_spills\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"cb_spill_bytes\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"slot_high_water\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"compactions\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"steal_ms\": {\"mean\": %.4f, \"stddev\": %.4f}, "
        "\"steal_est_err_ms\": {\"mean\": %.4f, \"stddev\": %.4f, \"n\": %llu}, "
        "\"wake_us_hist\": {\"buckets\": [",
        metrics::json_escape(cell.key.variant.empty() ? "base" : cell.key.variant).c_str(),
        std::string(guest::to_string(cell.key.mode)).c_str(),
        cell.key.tick_freq_hz, cell.key.vcpus, cell.key.overcommit,
        static_cast<unsigned long long>(cell.exits_total.count()),
        static_cast<unsigned long long>(cell.replicas_failed),
        static_cast<unsigned long long>(cell.replicas_timed_out),
        static_cast<unsigned long long>(cell.replicas_skipped),
        cell.exits_total.mean(), cell.exits_total.stddev(),
        cell.exits_timer.mean(), cell.exits_timer.stddev(),
        cell.busy_cycles.mean(), cell.busy_cycles.stddev(),
        cell.exec_time_ms.mean(), cell.exec_time_ms.stddev(),
        static_cast<unsigned long long>(cell.exec_time_ms.count()),
        cell.wakeup_latency_us.mean(), cell.wakeup_latency_us.stddev(),
        cell.wakeup_latency_us.max(),
        static_cast<unsigned long long>(cell.wakeup_latency_us.count()),
        cell.events_executed.mean(), cell.events_executed.stddev(),
        cell.cb_spills.mean(), cell.cb_spills.stddev(),
        cell.cb_spill_bytes.mean(), cell.cb_spill_bytes.stddev(),
        cell.slot_high_water.mean(), cell.slot_high_water.stddev(),
        cell.compactions.mean(), cell.compactions.stddev(),
        cell.steal_ms.mean(), cell.steal_ms.stddev(),
        cell.steal_est_err_ms.mean(), cell.steal_est_err_ms.stddev(),
        static_cast<unsigned long long>(cell.steal_est_err_ms.count()));
    const auto& buckets = cell.wake_hist_us.buckets();
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      out += metrics::format("%s%llu", b == 0 ? "" : ",",
                             static_cast<unsigned long long>(buckets[b]));
    }
    out += "]}";
    if (cell.par_windows.max() > 0.0) {
      // Parallel-engine window counters: deterministic at any
      // engine-thread count but lookahead-MODE-dependent, so they appear
      // only in cells that ran the partitioned engine — single-engine
      // sweep snapshots (and their committed baselines) stay unchanged,
      // and cross-mode byte-identity gates must compare the CSV export.
      out += metrics::format(
          ", \"par_windows\": {\"mean\": %.1f, \"stddev\": %.2f}, "
          "\"par_windows_skipped\": {\"mean\": %.1f, \"stddev\": %.2f}, "
          "\"par_barriers_elided\": {\"mean\": %.1f, \"stddev\": %.2f}, "
          "\"par_horizon_max_ns\": {\"mean\": %.1f, \"stddev\": %.2f}",
          cell.par_windows.mean(), cell.par_windows.stddev(),
          cell.par_windows_skipped.mean(), cell.par_windows_skipped.stddev(),
          cell.par_barriers_elided.mean(), cell.par_barriers_elided.stddev(),
          cell.par_horizon_max_ns.mean(), cell.par_horizon_max_ns.stddev());
    }
    out += metrics::format("}%s\n", i + 1 < cells.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

void SweepResult::write_csv(const std::string& path) const {
  write_file_atomic(path, to_csv());
}
void SweepResult::write_json(const std::string& path) const {
  write_file_atomic(path, to_json());
}

namespace {

/// The body of SweepCli::parse. Checked numeric parsing throws
/// sim::SimError on bad input (core/cli_parse.hpp); the public wrapper
/// turns that into exit(2) so `-j garbage` or `--seed 0xzz` fail loudly
/// instead of silently parsing to 0.
SweepCli parse_sweep_cli(int argc, char** argv) {
  SweepCli cli;
  const auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "-j") == 0) {
      cli.threads = static_cast<unsigned>(
          parse_u64_flag("-j", need_value(i, "-j"), ~0u));
    } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
      cli.threads = static_cast<unsigned>(parse_u64_flag("-j", arg + 2, ~0u));
    } else if (std::strcmp(arg, "--engine-threads") == 0) {
      cli.engine_threads = static_cast<unsigned>(parse_u64_flag(
          "--engine-threads", need_value(i, "--engine-threads"), ~0u));
    } else if (std::strcmp(arg, "--lookahead-mode") == 0) {
      cli.lookahead_mode = parse_choice_flag("--lookahead-mode",
                                             need_value(i, "--lookahead-mode"),
                                             {"global", "topology"}) == 0
                               ? sim::LookaheadMode::kGlobal
                               : sim::LookaheadMode::kTopology;
    } else if (std::strcmp(arg, "--max-horizon-windows") == 0) {
      cli.max_horizon_windows = parse_u64_flag(
          "--max-horizon-windows", need_value(i, "--max-horizon-windows"));
    } else if (std::strcmp(arg, "--repeat") == 0) {
      cli.repeat = static_cast<int>(parse_u64_flag(
          "--repeat", need_value(i, "--repeat"), 0x7FFFFFFFull));
    } else if (std::strcmp(arg, "--seed") == 0) {
      // base 0: decimal or 0x-prefixed hex, full 64-bit range.
      cli.root_seed =
          parse_u64_flag("--seed", need_value(i, "--seed"), ~0ull, 0);
    } else if (std::strcmp(arg, "--csv") == 0) {
      cli.csv = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      cli.progress = false;
    } else if (std::strcmp(arg, "--sweep-csv") == 0) {
      cli.sweep_csv = need_value(i, "--sweep-csv");
    } else if (std::strcmp(arg, "--sweep-json") == 0) {
      cli.sweep_json = need_value(i, "--sweep-json");
    } else if (std::strcmp(arg, "--history-dir") == 0) {
      cli.history_dir = need_value(i, "--history-dir");
    } else if (std::strcmp(arg, "--history-tag") == 0) {
      cli.history_tag = need_value(i, "--history-tag");
    } else if (std::strcmp(arg, "--profile") == 0) {
      cli.profile = true;
    } else if (std::strcmp(arg, "--chaos") == 0) {
      cli.chaos = true;
    } else if (std::strcmp(arg, "--watchdog") == 0) {
      cli.watchdog = true;
    } else if (std::strcmp(arg, "--failure-dir") == 0) {
      cli.failure_dir = need_value(i, "--failure-dir");
    } else if (std::strcmp(arg, "--record-trace") == 0) {
      cli.record_trace = true;
    } else if (std::strcmp(arg, "--max-failures") == 0) {
      cli.max_failures = static_cast<std::size_t>(
          parse_u64_flag("--max-failures", need_value(i, "--max-failures")));
    } else if (std::strcmp(arg, "--run-timeout") == 0) {
      cli.run_timeout_sec =
          parse_double_flag("--run-timeout", need_value(i, "--run-timeout"));
    } else if (std::strncmp(arg, "--fault-", 8) == 0) {
      const std::string knob = arg + 8;
      bool known = false;
      for (const char* k : fault_knob_names()) {
        if (knob == k) {
          known = true;
          break;
        }
      }
      if (!known) {
        std::fprintf(stderr, "unknown fault knob --fault-%s\n", knob.c_str());
        std::exit(2);
      }
      cli.fault_overrides.emplace_back(
          knob, parse_double_flag(arg, need_value(i, arg)));
    } else {
      cli.positional.emplace_back(arg);
    }
  }
  if (cli.repeat < 1) cli.repeat = 1;
  return cli;
}

}  // namespace

SweepCli SweepCli::parse(int argc, char** argv) {
  try {
    return parse_sweep_cli(argc, argv);
  } catch (const sim::SimError& e) {
    // Bad flag values are user errors, not bugs: report cleanly, exit 2.
    std::fprintf(stderr, "%s\n", e.msg().c_str());
    std::exit(2);
  }
}

void SweepCli::expect_positionals(std::size_t max) const {
  for (std::size_t i = 0; i < positional.size(); ++i) {
    if (i >= max || positional[i].front() == '-') {
      std::fprintf(stderr, "unrecognized argument: %s\n",
                   positional[i].c_str());
      std::exit(2);
    }
  }
}

void SweepCli::apply(SweepConfig& cfg) const {
  cfg.threads = threads;
  cfg.engine_threads = engine_threads;
  cfg.lookahead_mode = lookahead_mode;
  cfg.max_horizon_windows = max_horizon_windows;
  cfg.repeat = repeat;
  cfg.progress = progress;
  if (root_seed) cfg.root_seed = *root_seed;
  if (chaos) {
    cfg.fault = default_chaos_faults();
    cfg.watchdog = true;  // chaos without invariant checks finds nothing
  }
  if (watchdog) cfg.watchdog = true;
  if (!failure_dir.empty()) cfg.failure_dir = failure_dir;
  if (record_trace) cfg.record_trace = true;
  if (max_failures > 0) cfg.max_failures = max_failures;
  if (run_timeout_sec > 0.0) cfg.run_timeout_sec = run_timeout_sec;
  for (const auto& [knob, value] : fault_overrides) {
    set_fault_knob(cfg.fault, knob, value);
  }
}

SweepResult SweepCli::run_sweep(SweepConfig cfg) const {
  return SweepRunner(std::move(cfg)).run();
}

void SweepCli::export_results(const SweepResult& result,
                              const std::string& bench_name) const {
  if (!sweep_csv.empty()) result.write_csv(sweep_csv);
  if (!sweep_json.empty()) result.write_json(sweep_json);
  if (progress && (!sweep_csv.empty() || !sweep_json.empty())) {
    std::fprintf(stderr, "sweep: %zu runs in %.2fs on %u thread workers%s%s%s%s\n",
                 result.runs.size(), result.wall_seconds, result.threads_used,
                 sweep_csv.empty() ? "" : ", csv -> ",
                 sweep_csv.c_str(),
                 sweep_json.empty() ? "" : ", json -> ",
                 sweep_json.c_str());
  }
  if (profile) {
    // Engine self-profile, aggregated over every successful run. Only
    // events/sec depends on host wall time; everything above it is
    // deterministic and doubles as a "zero spills" acceptance check.
    std::uint64_t events = 0, scheduled = 0, cancelled = 0;
    std::uint64_t spills = 0, spill_bytes = 0, compactions = 0;
    std::uint64_t high_water = 0, wall_ns = 0;
    std::uint64_t par_windows = 0, par_skipped = 0, par_elided = 0;
    std::uint64_t par_horizon_ns = 0;
    for (const auto& run : result.runs) {
      if (!run.ok) continue;
      events += run.result.events_executed;
      scheduled += run.result.events_scheduled;
      cancelled += run.result.events_cancelled;
      spills += run.result.callback_spills;
      spill_bytes += run.result.callback_spill_bytes;
      compactions += run.result.queue_compactions;
      if (run.result.slot_high_water > high_water)
        high_water = run.result.slot_high_water;
      par_windows += run.result.par_windows;
      par_skipped += run.result.par_windows_skipped;
      par_elided += run.result.par_barriers_elided;
      if (run.result.par_horizon_max_ns > par_horizon_ns)
        par_horizon_ns = run.result.par_horizon_max_ns;
      wall_ns += run.result.engine_wall_ns;
    }
    std::printf("engine profile (%zu runs)\n", result.runs.size());
    std::printf("  events executed      %20llu\n",
                static_cast<unsigned long long>(events));
    std::printf("  events scheduled     %20llu\n",
                static_cast<unsigned long long>(scheduled));
    std::printf("  events cancelled     %20llu\n",
                static_cast<unsigned long long>(cancelled));
    std::printf("  callback heap spills %20llu\n",
                static_cast<unsigned long long>(spills));
    std::printf("  callback spill bytes %20llu\n",
                static_cast<unsigned long long>(spill_bytes));
    std::printf("  slot-map high water  %20llu\n",
                static_cast<unsigned long long>(high_water));
    std::printf("  heap compactions     %20llu\n",
                static_cast<unsigned long long>(compactions));
    if (par_windows > 0) {
      // Parallel-engine window counters (only when something actually ran
      // the partitioned engine). Mode-dependent by design: topology mode
      // proves its barrier savings right here.
      std::printf("  parallel windows     %20llu\n",
                  static_cast<unsigned long long>(par_windows));
      std::printf("  windows skipped      %20llu\n",
                  static_cast<unsigned long long>(par_skipped));
      std::printf("  barriers elided      %20llu\n",
                  static_cast<unsigned long long>(par_elided));
      std::printf("  max horizon (ns)     %20llu\n",
                  static_cast<unsigned long long>(par_horizon_ns));
    }
    if (wall_ns > 0) {
      std::printf("  events/sec (engine)  %20.0f\n",
                  static_cast<double>(events) /
                      (static_cast<double>(wall_ns) * 1e-9));
    }
  }
  if (!history_dir.empty()) {
    if (bench_name.empty()) {
      std::fprintf(stderr,
                   "--history-dir: this binary does not name its sweep; "
                   "no snapshot written\n");
      return;
    }
    const std::string tag = history_tag.empty() ? history_tag_now() : history_tag;
    const std::string path =
        write_history_snapshot(result, history_dir, bench_name, tag);
    if (progress) std::fprintf(stderr, "sweep: history snapshot -> %s\n", path.c_str());
  }
}

}  // namespace paratick::core
