// paratick-sim benchmark harness.
//
// Rebuilds one of three paper grids (Figure 5 / Table 3, Table 1,
// Figure 6 / Table 4) exactly as its paper driver in bench/ does, runs it
// through the public core::SweepRunner path, and times every layer from
// outside: the ScenarioSpec::run hook splits each run into System
// construction (with the workload's setup callback timed inside it),
// power_on(), engine().run_until(), finish() and teardown; the sweep and
// the exports are timed around their calls; a traced run adds an
// EventObserver that times every dispatched event.
//
// Usage:
//   perfbench_harness --workload fig5_parsec|table1_ticks|fig6_io
//                     --seed S --seconds T --threads J --trace 0|1
//                     --export PATH [--trace-out PATH] [--corrupt CHECK]
//                     [--git-sha SHA]
//
// Prints human-readable lines, then one JSON object as the last line of
// stdout: {"metrics": {...}, "checks": [...], "attempted": N, "failed": N,
// "stamp": {...}}. Writes the deterministic sweep export (to_json) of the
// last untraced grid to --export, and with --trace 1 the spans of the
// last traced grid as Chrome trace-event JSON to --trace-out. Exit code 0
// when every correctness check passed, 1 otherwise, 2 on usage errors.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/analytic.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "core/system.hpp"
#include "guest/hrtimer.hpp"
#include "guest/timer_wheel.hpp"
#include "hw/deadline_timer.hpp"
#include "metrics/report.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "workload/fio.hpp"
#include "workload/micro.hpp"
#include "workload/parsec.hpp"

// ---------------------------------------------------------------------------
// Counting allocator. Lives only in this binary; each thread counts its own
// allocations, so a run's count is the difference of its worker thread's
// counter across the run (a run never migrates between threads).

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace paratick;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of the calling thread. A run executes on one thread, so this
/// is the run's own host cost, without the time its thread sat preempted.
std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

// ---------------------------------------------------------------------------
// The three paper grids, built exactly as bench/bench_fig5_multithreaded,
// bench/bench_table1 and bench/bench_fig6_io build theirs, so the
// deterministic export can be compared byte for byte with the driver's
// --sweep-json.

struct Fig5Size {
  const char* name;
  int vcpus;
  std::uint32_t sockets;
  double paper_exits_pct, paper_throughput_pct, paper_time_pct;  // Table 3
};

constexpr Fig5Size kFig5Sizes[] = {
    {"small", 4, 1, -42.0, +12.0, -1.0},
    {"medium", 16, 2, -47.0, +13.0, -3.0},
    {"large", 64, 4, -44.0, +16.0, -1.0},
};

core::SweepConfig fig5_grid() {
  core::SweepConfig cfg;
  cfg.base.attach_disk = true;
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  for (const auto& size : kFig5Sizes) {
    for (const auto& profile : workload::parsec_suite()) {
      cfg.variants.push_back(
          {std::string(size.name) + "/" + std::string(profile.name),
           [&size, &profile](core::ExperimentSpec& exp) {
             exp.machine =
                 hw::MachineSpec{size.sockets,
                                 static_cast<std::uint32_t>(size.vcpus) / size.sockets,
                                 sim::CpuFrequency{2.0}, sim::SimTime::ns(300)};
             exp.vcpus = size.vcpus;
             exp.setup = [&profile, &size](guest::GuestKernel& k) {
               workload::install_parsec(k, profile, size.vcpus);
             };
           }});
    }
  }
  return cfg;
}

/// Mean |simulated - published| over the 3 deltas x 3 Table 3 rows.
double fig5_paper_err(const core::SweepResult& res) {
  double err = 0.0;
  for (const auto& size : kFig5Sizes) {
    std::vector<metrics::Comparison> cs;
    for (const auto& profile : workload::parsec_suite()) {
      cs.push_back(res.compare(std::string(size.name) + "/" + std::string(profile.name),
                               guest::TickMode::kDynticksIdle, guest::TickMode::kParatick));
    }
    const metrics::Comparison m = metrics::average(cs);
    err += std::abs(m.exit_delta_pct - size.paper_exits_pct) +
           std::abs(m.throughput_gain_pct - size.paper_throughput_pct) +
           std::abs(m.exec_time_delta_pct - size.paper_time_pct);
  }
  return err / 9.0;
}

struct Table1Row {
  const char* name;
  int vm_copies;
  bool sync_storm;
};

constexpr Table1Row kTable1Rows[] = {
    {"W1", 1, false}, {"W2", 4, false}, {"W3", 1, true}, {"W4", 4, true}};
constexpr int kTable1Vcpus = 16;
const sim::SimTime kTable1Duration = sim::SimTime::sec(10);

core::SweepConfig table1_grid() {
  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(16);
  cfg.base.vcpus = kTable1Vcpus;
  cfg.base.max_duration = kTable1Duration;
  cfg.base.stop_when_done = false;
  cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
               guest::TickMode::kParatick};
  for (const Table1Row& row : kTable1Rows) {
    cfg.variants.push_back({row.name, [&row](core::ExperimentSpec& exp) {
      exp.scenario.vm_copies = row.vm_copies;
      if (row.sync_storm) {
        exp.setup = [](guest::GuestKernel& k) {
          workload::SyncStormSpec storm;
          storm.threads = kTable1Vcpus;
          storm.sync_rate_hz = 1000.0 / (kTable1Vcpus - 1);
          storm.duration = kTable1Duration;
          storm.load = 0.5;
          workload::install_sync_storm(k, storm);
        };
      }
    }});
  }
  return cfg;
}

std::uint64_t timer_exits(const core::SweepResult& res, const char* variant,
                          guest::TickMode mode) {
  const core::SweepCellSummary* cell = res.find(variant, mode);
  return cell ? static_cast<std::uint64_t>(cell->exits_timer.mean() + 0.5) : 0;
}

/// Mean |simulated - published| tickless/periodic timer-exit ratio, in
/// percentage points, over the four Table 1 rows.
double table1_paper_err(const core::SweepResult& res) {
  const auto published = core::table1_published();
  double err = 0.0;
  for (std::size_t i = 0; i < std::size(kTable1Rows); ++i) {
    const char* w = kTable1Rows[i].name;
    const double sim_ratio =
        100.0 * static_cast<double>(timer_exits(res, w, guest::TickMode::kDynticksIdle)) /
        static_cast<double>(std::max<std::uint64_t>(1, timer_exits(res, w, guest::TickMode::kPeriodic)));
    const double paper_ratio = 100.0 * static_cast<double>(published[i].tickless) /
                               static_cast<double>(published[i].periodic);
    err += std::abs(sim_ratio - paper_ratio);
  }
  return err / static_cast<double>(std::size(kTable1Rows));
}

std::string fio_variant(std::string_view category, std::uint32_t bs) {
  return metrics::format("%s/bs=%uk", std::string(category).c_str(), bs / 1024);
}

core::SweepConfig fig6_grid() {
  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.attach_disk = true;
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  for (const auto& cat : workload::fio_categories()) {
    for (const std::uint32_t bs : workload::fio_block_sizes()) {
      workload::FioSpec spec;
      spec.dir = cat.dir;
      spec.pattern = cat.pattern;
      spec.block_bytes = bs;
      spec.ops = 1500;
      cfg.variants.push_back({fio_variant(cat.name, bs), [spec](core::ExperimentSpec& exp) {
                                exp.setup = [spec](guest::GuestKernel& k) {
                                  workload::install_fio(k, spec);
                                };
                              }});
    }
  }
  return cfg;
}

/// Mean |simulated - published| over the three Table 4 deltas.
double fig6_paper_err(const core::SweepResult& res) {
  std::vector<metrics::Comparison> per_cat;
  for (const auto& cat : workload::fio_categories()) {
    std::vector<metrics::Comparison> per_bs;
    for (const std::uint32_t bs : workload::fio_block_sizes()) {
      per_bs.push_back(res.compare(fio_variant(cat.name, bs), guest::TickMode::kDynticksIdle,
                                   guest::TickMode::kParatick));
    }
    per_cat.push_back(metrics::average(per_bs));
  }
  const metrics::Comparison m = metrics::average(per_cat);
  return (std::abs(m.exit_delta_pct + 34.0) + std::abs(m.throughput_gain_pct - 20.0) +
          std::abs(m.exec_time_delta_pct + 18.0)) /
         3.0;
}

struct Workload {
  const char* name;
  core::SweepConfig (*grid)();
  double (*paper_err_pp)(const core::SweepResult&);
  /// Percentile reported as run_ms_tail: fixed per workload so that every
  /// run reports the same percentile; chosen so that the runs pooled over
  /// a run's grid repetitions leave at least ten samples beyond it.
  double tail_pct;
};

constexpr Workload kWorkloads[] = {
    {"fig5_parsec", fig5_grid, fig5_paper_err, 95.0},
    {"table1_ticks", table1_grid, table1_paper_err, 90.0},
    {"fig6_io", fig6_grid, fig6_paper_err, 99.0},
};

// ---------------------------------------------------------------------------
// Tracing: per-run span timestamps recorded by the ScenarioSpec::run hook,
// and a per-run EventObserver histogram of host ns between events.

/// Log-linear histogram of host nanoseconds: 32 sub-buckets per power of
/// two, so percentiles resolve to about 3 %.
class NsHistogram {
 public:
  void add(std::uint64_t ns) {
    ++buckets_[index(ns)];
    ++count_;
  }
  void merge(const NsHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

 private:
  static constexpr unsigned kSub = 32;
  static constexpr std::size_t kBuckets = kSub + 40 * kSub;
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));  // e >= 5
    const std::uint64_t sub = (v >> (e - 5)) & (kSub - 1);
    return std::min<std::size_t>(kBuckets - 1, kSub + (e - 5) * kSub + sub);
  }
  static double midpoint(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t e = (i - kSub) / kSub + 5;
    const std::size_t sub = (i - kSub) % kSub;
    const double lo = std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(e) - 5);
    return lo + std::ldexp(0.5, static_cast<int>(e) - 5);
  }
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// Times the host interval between consecutive dispatched events.
class EventTimer final : public sim::EventObserver {
 public:
  void start() { last_ = now_ns(); }
  void on_event_executed(sim::Engine&, sim::SimTime, std::uint64_t) override {
    const std::int64_t t = now_ns();
    hist.add(static_cast<std::uint64_t>(t - last_));
    last_ = t;
  }
  NsHistogram hist;

 private:
  std::int64_t last_ = 0;
};

/// Span boundaries of one run, host ns, all on the run's worker thread.
struct RunRecord {
  std::int64_t start = 0;          // hook entry
  std::int64_t setup_end = 0;      // System constructed (core.setup)
  std::int64_t power_end = 0;      // power_on() returned (hv.power_on)
  std::int64_t sim_end = 0;        // run_until() returned (sim.run)
  std::int64_t collect_end = 0;    // finish() returned (metrics.collect)
  std::int64_t end = 0;            // System destroyed (core.teardown)
  std::int64_t install_ns = 0;     // inside core.setup (workload.install)
  std::int64_t install_first = 0;  // first setup callback entry (trace only)
  std::int64_t cpu_setup = 0;      // thread CPU ns of core.setup + hv.power_on
  std::int64_t cpu_run = 0;        // thread CPU ns of the whole run
  std::uint64_t allocs_run = 0;    // whole hook
  std::uint64_t allocs_sim = 0;    // inside run_until()
  std::uint64_t tid = 0;
  std::int64_t expected_cycles = 0;  // pCPUs x simulated wall
  std::int64_t ledger_cycles = 0;
  std::unique_ptr<EventTimer> events;  // traced runs only
};

/// Shared state of one grid execution, reached from the hook.
struct GridTrace {
  bool traced = false;
  std::unordered_map<std::uint64_t, std::size_t> run_of_seed;
  std::vector<RunRecord> runs;
};

metrics::RunResult timed_run(GridTrace& g, const core::ExperimentSpec& exp,
                             guest::TickMode mode) {
  const auto it = g.run_of_seed.find(exp.guest_seed);
  PARATICK_CHECK_MSG(it != g.run_of_seed.end(), "perfbench: run seed not in the plan");
  RunRecord& rec = g.runs[it->second];
  rec.tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  if (g.traced) rec.events = std::make_unique<EventTimer>();
  const std::uint64_t allocs0 = t_allocs;
  const std::int64_t cpu0 = thread_cpu_ns();
  rec.start = now_ns();

  // The same construction run_mode() does, with each VM's setup callback
  // wrapped in a timer. The wrapper captures two pointers, so it fits
  // std::function's inline storage and adds no allocation of its own.
  core::SystemSpec spec = core::make_system_spec(exp, mode);
  for (std::size_t i = 0; i < spec.vms.size(); ++i) {
    if (!spec.vms[i].setup) continue;
    const auto* install = exp.scenario.vm_setups.empty() ? &exp.setup : &exp.scenario.vm_setups[i];
    spec.vms[i].setup = [r = &rec, install](guest::GuestKernel& k) {
      const std::int64_t t = now_ns();
      if (r->install_first == 0) r->install_first = t;
      (*install)(k);
      r->install_ns += now_ns() - t;
    };
  }
  if (rec.events) spec.observer = rec.events.get();

  std::optional<core::System> sys;
  sys.emplace(std::move(spec));
  rec.setup_end = now_ns();
  sys->power_on();
  rec.power_end = now_ns();
  rec.cpu_setup = thread_cpu_ns() - cpu0;
  if (rec.events) rec.events->start();
  const std::uint64_t allocs_sim0 = t_allocs;
  sys->engine().run_until(exp.max_duration);
  rec.allocs_sim = t_allocs - allocs_sim0;
  rec.sim_end = now_ns();
  metrics::RunResult r = sys->finish();
  rec.collect_end = now_ns();
  for (const auto& cpu : sys->machine().cpus()) {
    rec.expected_cycles += cpu.frequency().cycles_in(r.wall).count();
  }
  rec.ledger_cycles = r.cycles.grand_total().count();
  sys.reset();
  rec.end = now_ns();
  rec.cpu_run = thread_cpu_ns() - cpu0;
  rec.allocs_run = t_allocs - allocs0;
  return r;
}

struct GridPass {
  core::SweepResult res;
  GridTrace trace;
  std::int64_t sweep_start = 0, sweep_end = 0;
  std::int64_t export_start = 0, export_end = 0;
  double cpu_s = 0.0;
  std::string json;  // deterministic export
};

GridPass run_grid(const Workload& w, std::uint64_t seed, unsigned threads, bool traced) {
  core::SweepConfig cfg = w.grid();
  cfg.root_seed = seed;
  cfg.threads = threads;
  cfg.engine_threads = 1;

  GridPass p;
  cfg.base.scenario.run = [g = &p.trace](const core::ExperimentSpec& exp,
                                         guest::TickMode mode) {
    return timed_run(*g, exp, mode);
  };
  const core::SweepRunner runner(std::move(cfg));
  p.trace.traced = traced;
  p.trace.runs.resize(runner.total_runs());
  for (std::size_t i = 0; i < runner.total_runs(); ++i) {
    p.trace.run_of_seed.emplace(core::derive_seed(seed, i), i);
  }

  const double cpu0 = cpu_seconds();
  p.sweep_start = now_ns();
  p.res = runner.run();
  p.sweep_end = now_ns();
  p.cpu_s = cpu_seconds() - cpu0;
  p.export_start = now_ns();
  p.json = p.res.to_json();
  static_cast<void>(p.res.to_csv());
  p.export_end = now_ns();
  return p;
}

// ---------------------------------------------------------------------------
// Correctness checks over one grid pass.

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Checks {
 public:
  explicit Checks(std::string corrupt) : corrupt_(std::move(corrupt)) {}

  /// True for the check named by --corrupt, whose expected value is then
  /// made wrong: the benchmark's own tests use this to prove that each
  /// check can fail the command.
  [[nodiscard]] bool corrupted(const std::string& name) const { return name == corrupt_; }
  /// Expected value of check `name`, off by one when it is corrupted.
  [[nodiscard]] std::int64_t expect(const std::string& name, std::int64_t v) const {
    return corrupted(name) ? v + 1 : v;
  }

  void record(const std::string& name, bool ok, const std::string& detail) {
    auto it = std::find_if(results_.begin(), results_.end(),
                           [&](const CheckResult& c) { return c.name == name; });
    if (it == results_.end()) {
      results_.push_back({name, ok, ok ? std::string{} : detail});
    } else if (!ok && it->ok) {
      it->ok = false;
      it->detail = detail;
    }
  }

  [[nodiscard]] bool all_ok() const {
    return std::all_of(results_.begin(), results_.end(),
                       [](const CheckResult& c) { return c.ok; });
  }
  [[nodiscard]] const std::vector<CheckResult>& results() const { return results_; }

 private:
  std::string corrupt_;
  std::vector<CheckResult> results_;
};

void check_pass(const Workload& w, const GridPass& p, Checks& checks) {
  const core::SweepResult& res = p.res;
  const auto failed = static_cast<std::int64_t>(res.failed_runs().size());
  checks.record("runs_failed", failed == checks.expect("runs_failed", 0),
                metrics::format("%lld runs failed", static_cast<long long>(failed)));

  std::int64_t spills = 0;
  for (const auto& r : res.runs) spills += static_cast<std::int64_t>(r.result.callback_spills);
  checks.record("callback_spills", spills == checks.expect("callback_spills", 0),
                metrics::format("%lld callback heap spills", static_cast<long long>(spills)));

  for (const auto& cell : res.cells) {
    if (cell.key.mode != guest::TickMode::kParatick) continue;
    const core::SweepCellSummary* dyn = res.find(cell.key.variant, guest::TickMode::kDynticksIdle);
    if (dyn == nullptr) continue;
    const auto para = static_cast<std::int64_t>(cell.exits_timer.mean());
    const auto base = static_cast<std::int64_t>(dyn->exits_timer.mean());
    const std::int64_t bound = checks.corrupted("paratick_le_dynticks") ? -1 : base;
    checks.record("paratick_le_dynticks", para <= bound,
                  metrics::format("%s: paratick %lld timer exits > dynticks-idle %lld",
                                  cell.key.variant.c_str(), static_cast<long long>(para),
                                  static_cast<long long>(base)));
  }

  if (std::strcmp(w.name, "table1_ticks") == 0) {
    const auto w1 = static_cast<std::int64_t>(timer_exits(res, "W1", guest::TickMode::kPeriodic));
    const auto w2 = static_cast<std::int64_t>(timer_exits(res, "W2", guest::TickMode::kPeriodic));
    checks.record("table1_periodic",
                  w1 == checks.expect("table1_periodic", 40000) && w2 == 160000,
                  metrics::format("periodic W1/W2 timer exits %lld/%lld, expected 40000/160000",
                                  static_cast<long long>(w1), static_cast<long long>(w2)));
  }

  // Busy + idle cycles must cover pCPUs x simulated wall. The tolerance is
  // the one tests/test_system.cpp (CycleConservationBusyPlusIdleEqualsWall)
  // holds the model to; runs off by any amount are also counted and
  // reported as hw.cycles.overcharged_runs.
  for (std::size_t i = 0; i < p.trace.runs.size(); ++i) {
    const RunRecord& rec = p.trace.runs[i];
    const double expected = static_cast<double>(rec.expected_cycles) *
                            (checks.corrupted("cycle_conservation") ? 2.0 : 1.0);
    const double off = std::abs(static_cast<double>(rec.ledger_cycles) - expected);
    checks.record("cycle_conservation", off <= std::max(1.0, 1e-3 * expected),
                  metrics::format("run %zu: ledger %lld cycles, pCPUs x wall %lld", i,
                                  static_cast<long long>(rec.ledger_cycles),
                                  static_cast<long long>(rec.expected_cycles)));
  }
}

// ---------------------------------------------------------------------------
// Isolated layer drivers: each times its own layer's public operations and
// reports host ns per operation (and its own operations per second).

struct OpRate {
  double ns_per_op = 0.0;
  double ops_per_s = 0.0;
};

/// Median over `batches` of (batch wall / batch ops).
template <typename Batch>
OpRate time_ops(int batches, Batch&& batch) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    const std::uint64_t ops = batch();
    ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(std::max<std::uint64_t>(1, ops)));
  }
  const double m = median(ns);
  return {m, m > 0.0 ? 1e9 / m : 0.0};
}

/// A bare sim::Engine holding `live` pending events; every dispatched event
/// reschedules itself and, with the measured probability, first cancels and
/// replaces another pending event. Ops = schedules + cancels + dispatches.
OpRate queue_ops(std::size_t live, double cancel_frac, std::uint64_t seed) {
  struct Driver {
    sim::Engine engine;
    sim::Rng rng;
    std::vector<sim::EventId> ids;
    double replace_p = 0.0;
    std::uint64_t ops = 0;

    sim::EventId schedule(std::size_t slot) {
      ++ops;
      return engine.schedule_after(sim::SimTime::ns(1 + rng.uniform_int(0, 9999)),
                                   [this, slot] { fire(slot); });
    }
    void fire(std::size_t slot) {
      ++ops;
      if (ids.size() > 1 && rng.next_double() < replace_p) {
        const auto victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
        if (victim != slot && engine.cancel(ids[victim])) {
          ++ops;
          ids[victim] = schedule(victim);
        }
      }
      ids[slot] = schedule(slot);
    }
  };
  Driver d{sim::Engine{}, sim::Rng{seed}, {}, 0.0, 0};
  // cancels / schedules = p / (1 + p) = cancel_frac.
  d.replace_p = std::clamp(cancel_frac / std::max(1e-9, 1.0 - cancel_frac), 0.0, 1.0);
  d.ids.resize(std::max<std::size_t>(1, live));
  for (std::size_t s = 0; s < d.ids.size(); ++s) d.ids[s] = d.schedule(s);
  // Mean delay 5 us: run long enough for ~200k dispatches per batch.
  const auto span = sim::SimTime::ns(static_cast<std::int64_t>(
      200000.0 * 5000.0 / static_cast<double>(d.ids.size())));
  return time_ops(5, [&] {
    d.ops = 0;
    d.engine.run_until(d.engine.now() + span);
    return d.ops;
  });
}

/// Guest timer wheel: per iteration one add, a cancel every other
/// iteration, and a one-jiffy advance, over ~1024 pending timers.
OpRate wheel_ops(std::uint64_t seed) {
  guest::TimerWheel wheel;
  sim::Rng rng{seed};
  std::vector<guest::TimerWheel::TimerId> ids(1024);
  std::uint64_t fired = 0;
  std::uint64_t jiffy = 0;
  for (auto& id : ids) {
    id = wheel.add(jiffy + 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 2047)),
                   [&fired] { ++fired; });
  }
  return time_ops(5, [&] {
    std::uint64_t ops = 0;
    for (int i = 0; i < 100000; ++i) {
      const auto slot = static_cast<std::size_t>(rng.uniform_int(0, 1023));
      if (i % 2 == 0) {
        wheel.cancel(ids[slot]);
        ++ops;
      }
      ids[slot] = wheel.add(jiffy + 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 2047)),
                            [&fired] { ++fired; });
      wheel.advance(++jiffy);
      ops += 2;
    }
    return ops;
  });
}

/// Guest hrtimer queue: per iteration one add, a cancel every other
/// iteration, and an expire 10 us later, over ~1024 pending timers.
OpRate hrtimer_ops(std::uint64_t seed) {
  guest::HrtimerQueue q;
  sim::Rng rng{seed};
  std::vector<guest::HrtimerQueue::TimerId> ids(1024);
  std::uint64_t fired = 0;
  sim::SimTime now = sim::SimTime::zero();
  auto deadline = [&] { return now + sim::SimTime::ns(1000 + rng.uniform_int(0, 20'000'000)); };
  for (auto& id : ids) id = q.add(deadline(), [&fired] { ++fired; });
  return time_ops(5, [&] {
    std::uint64_t ops = 0;
    for (int i = 0; i < 100000; ++i) {
      const auto slot = static_cast<std::size_t>(rng.uniform_int(0, 1023));
      if (i % 2 == 0) {
        q.cancel(ids[slot]);
        ++ops;
      }
      ids[slot] = q.add(deadline(), [&fired] { ++fired; });
      now = now + sim::SimTime::us(10);
      q.expire(now);
      ops += 2;
    }
    return ops;
  });
}

/// LAPIC TSC-deadline timer: arm, re-arm (replacing the pending expiry)
/// and, every other round, disarm. Ops = arm + disarm calls.
OpRate deadline_ops(std::uint64_t seed) {
  sim::Engine engine;
  std::uint64_t fired = 0;
  hw::DeadlineTimer timer(engine, [&fired] { ++fired; });
  sim::Rng rng{seed};
  return time_ops(5, [&] {
    std::uint64_t ops = 0;
    for (int i = 0; i < 100000; ++i) {
      timer.arm(engine.now() + sim::SimTime::ns(100 + rng.uniform_int(0, 4'000'000)));
      timer.arm(engine.now() + sim::SimTime::ns(100 + rng.uniform_int(0, 4'000'000)));
      if (i % 2 == 0) {
        timer.disarm();
        ++ops;
      }
      ops += 2;
    }
    return ops;
  });
}

// ---------------------------------------------------------------------------
// Output helpers.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += metrics::format("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  return metrics::format("%.17g", v);
}

/// Peak resident set of this process. Read from /proc rather than
/// getrusage(), whose ru_maxrss survives execve() and so would report the
/// launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

/// Chrome trace-event JSON ("X" complete events, microseconds) of the spans
/// of one traced grid pass: core.sweep is the root, each run a child of
/// it, and core.export sits beside the runs.
void write_chrome_trace(const std::string& path, const Workload& w, const GridPass& p) {
  std::ofstream out(path);
  if (!out) return;
  const std::int64_t t0 = p.sweep_start;
  std::unordered_map<std::uint64_t, int> tids;
  auto tid_of = [&](std::uint64_t h) {
    return tids.emplace(h, static_cast<int>(tids.size()) + 1).first->second;
  };
  bool first = true;
  auto span = [&](const char* name, std::int64_t start, std::int64_t end, int tid,
                  const char* parent, long long run) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << tid << ",\"ts\":" << json_number(static_cast<double>(start - t0) / 1e3)
        << ",\"dur\":" << json_number(static_cast<double>(end - start) / 1e3)
        << ",\"args\":{\"parent\":\"" << parent << "\",\"run\":" << run << "}}";
    first = false;
  };
  out << "{\"traceEvents\":[\n";
  span("core.sweep", p.sweep_start, p.sweep_end, 0, "", -1);
  for (std::size_t i = 0; i < p.trace.runs.size(); ++i) {
    const RunRecord& r = p.trace.runs[i];
    const int tid = tid_of(r.tid);
    const auto run = static_cast<long long>(i);
    span("run", r.start, r.end, tid, "core.sweep", run);
    span("core.setup", r.start, r.setup_end, tid, "run", run);
    if (r.install_ns > 0) {
      span("workload.install", r.install_first, r.install_first + r.install_ns, tid,
           "core.setup", run);
    }
    span("hv.power_on", r.setup_end, r.power_end, tid, "run", run);
    span("sim.run", r.power_end, r.sim_end, tid, "run", run);
    span("metrics.collect", r.sim_end, r.collect_end, tid, "run", run);
    span("core.teardown", r.collect_end, r.end, tid, "run", run);
  }
  span("core.export", p.export_start, p.export_end, 0, "", -1);
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"" << w.name << "\"}}\n";
}

// ---------------------------------------------------------------------------
// Metrics.

/// End-to-end host-cost figures of one untraced grid pass.
struct PassCost {
  double wall_s = 0.0;
  double ns_per_event = 0.0;
  double setup_s = 0.0;
  std::vector<double> run_ms;
};

PassCost pass_cost(const GridPass& p) {
  PassCost c;
  c.wall_s = static_cast<double>(p.sweep_end - p.sweep_start) * 1e-9;
  std::uint64_t events = 0;
  for (const auto& r : p.res.runs) events += r.result.events_executed;
  c.ns_per_event = p.cpu_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, events));
  for (const RunRecord& r : p.trace.runs) {
    c.setup_s += static_cast<double>(r.cpu_setup) * 1e-9;
    c.run_ms.push_back(static_cast<double>(r.cpu_run) * 1e-6);
  }
  return c;
}

/// Self times (ms, summed over the grid's runs) of one traced pass.
struct LayerTimes {
  double core_setup = 0, install = 0, power_on = 0, sim_run = 0, collect = 0,
         teardown = 0, export_ms = 0, sweep_overhead = 0, wall_ms = 0;
  unsigned threads = 1;
};

LayerTimes layer_times(const GridPass& p) {
  LayerTimes t;
  double runs_total = 0;
  for (const RunRecord& r : p.trace.runs) {
    const double install = static_cast<double>(r.install_ns) * 1e-6;
    const double setup = static_cast<double>(r.setup_end - r.start) * 1e-6;
    t.install += install;
    t.core_setup += setup - install;
    t.power_on += static_cast<double>(r.power_end - r.setup_end) * 1e-6;
    t.sim_run += static_cast<double>(r.sim_end - r.power_end) * 1e-6;
    t.collect += static_cast<double>(r.collect_end - r.sim_end) * 1e-6;
    t.teardown += static_cast<double>(r.end - r.collect_end) * 1e-6;
    runs_total += static_cast<double>(r.end - r.start) * 1e-6;
  }
  t.threads = p.res.threads_used;
  t.wall_ms = static_cast<double>(p.sweep_end - p.sweep_start) * 1e-6;
  t.sweep_overhead = t.wall_ms * t.threads - runs_total;
  t.export_ms = static_cast<double>(p.export_end - p.export_start) * 1e-6;
  return t;
}

#ifdef __clang__
const std::string kCompiler = std::string("clang ") + __clang_version__;
#else
const std::string kCompiler = std::string("gcc ") + __VERSION__;
#endif

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1234;
  double seconds = 10.0;
  unsigned threads = 1;
  bool trace = false;
  std::string export_path;
  std::string trace_out;
  std::string corrupt;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench_harness: %s\n", msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (v == w.name) o.workload = &w;
        }
        if (o.workload == nullptr) usage(("unknown workload " + v).c_str());
      } else if (a == "--seed") {
        o.seed = std::stoull(v, nullptr, 0);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--threads") {
        o.threads = static_cast<unsigned>(std::stoul(v));
      } else if (a == "--trace") {
        o.trace = v == "1";
      } else if (a == "--export") {
        o.export_path = v;
      } else if (a == "--trace-out") {
        o.trace_out = v;
      } else if (a == "--corrupt") {
        o.corrupt = v;
      } else if (a == "--git-sha") {
        o.git_sha = v;
      } else {
        usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  if (o.threads == 0) o.threads = 1;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload& w = *opt.workload;
  Checks checks(opt.corrupt);
  std::uint64_t attempted = 0, failed = 0;

  auto grid = [&](bool traced) {
    GridPass p = run_grid(w, opt.seed, opt.threads, traced);
    check_pass(w, p, checks);
    attempted += p.res.runs.size();
    failed += p.res.failed_runs().size();
    return p;
  };

  // Warm-up pass: fills the allocator's arenas and the page cache of the
  // binary; its export is the reference every later pass must reproduce.
  const GridPass warm = grid(false);
  const std::string reference = warm.json;
  auto same_export = [&](const GridPass& p, const char* name) {
    checks.record(name, p.json + (opt.corrupt == name ? "x" : "") == reference,
                  "deterministic export differs from the first pass's");
  };

  std::vector<Metric> out;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  GridPass last;  // the last measured pass: its export and records are reported

  if (!opt.trace) {
    std::vector<double> wall, npe, setup, run_ms;
    do {
      GridPass p = grid(false);
      same_export(p, "export_repeatable");
      const PassCost c = pass_cost(p);
      wall.push_back(c.wall_s);
      npe.push_back(c.ns_per_event);
      setup.push_back(c.setup_s);
      run_ms.insert(run_ms.end(), c.run_ms.begin(), c.run_ms.end());
      last = std::move(p);
    } while (now_ns() < deadline);

    // The workload's fixed percentile, lowered if the sample leaves fewer
    // than ten runs beyond it.
    const auto n = static_cast<double>(run_ms.size());
    const double tail_pct = std::min(w.tail_pct, std::floor(100.0 * (n - 10.0) / n));
    out.push_back({"wall_s", median(wall), "s"});
    out.push_back({"ns_per_event", median(npe), "ns"});
    out.push_back({"run_ms_p50", percentile(run_ms, 50.0), "ms"});
    out.push_back({"run_ms_tail", percentile(run_ms, tail_pct), "ms"});
    out.push_back({"setup_s", median(setup), "s"});
    out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    out.push_back({"paper_err_pp", w.paper_err_pp(last.res), "pp"});
    std::printf("%s: %zu grid passes, run_ms_tail is p%.0f of %zu runs\n", w.name,
                wall.size(), tail_pct, run_ms.size());
    for (const auto& [name, v] : {std::pair{"wall_s", &wall}, {"ns_per_event", &npe}, {"setup_s", &setup}}) {
      std::printf("  per pass %-14s min %.5g  p25 %.5g  median %.5g  p75 %.5g  max %.5g\n", name,
                  percentile(*v, 0), percentile(*v, 25), median(*v), percentile(*v, 75),
                  percentile(*v, 100));
    }
  } else {
    // Alternate untraced and traced passes so both see the same host load.
    std::vector<double> plain_wall, traced_wall;
    std::vector<LayerTimes> layers;
    do {
      GridPass u = grid(false);
      same_export(u, "export_repeatable");
      plain_wall.push_back(static_cast<double>(u.sweep_end - u.sweep_start));
      GridPass t = grid(true);
      same_export(t, "export_traced_equal");
      traced_wall.push_back(static_cast<double>(t.sweep_end - t.sweep_start));
      layers.push_back(layer_times(t));
      last = std::move(t);
    } while (now_ns() < deadline);
    const GridPass& p = last;
    if (!opt.trace_out.empty()) write_chrome_trace(opt.trace_out, w, p);

    auto med = [&](double LayerTimes::*f) {
      std::vector<double> v;
      for (const LayerTimes& l : layers) v.push_back(l.*f);
      return median(v);
    };

    // Counts from the RunResults, split by tick mode where marked.
    struct ModeAgg {
      double sim_ns = 0, events = 0, allocs = 0, exits = 0, ticks = 0;
    };
    std::map<guest::TickMode, ModeAgg> by_mode;
    ModeAgg all;
    std::uint64_t scheduled = 0, cancelled = 0, high_water = 0, compactions = 0, spills = 0;
    std::uint64_t exits_total = 0, exits_timer = 0, virtual_ticks = 0, msr_writes = 0;
    std::uint64_t allocs_outside_sim = 0, overcharged = 0;
    double overcharge_max = 0.0;
    std::array<std::uint64_t, hw::kExitCauseCount> by_cause{};
    std::array<double, hw::kCycleCategoryCount> cycles{};
    sim::LogHistogram wake;
    NsHistogram event_ns;
    for (std::size_t i = 0; i < p.res.runs.size(); ++i) {
      const metrics::RunResult& r = p.res.runs[i].result;
      const RunRecord& rec = p.trace.runs[i];
      ModeAgg& m = by_mode[p.res.cells[p.res.runs[i].cell].key.mode];
      double ticks = 0;
      for (const auto& vm : r.vms) {
        ticks += static_cast<double>(vm.policy.ticks_handled);
        virtual_ticks += vm.policy.virtual_ticks;
        msr_writes += vm.policy.msr_writes;
        wake.merge(vm.wakeup_latency_hist_us);
      }
      for (ModeAgg* a : {&m, &all}) {
        a->sim_ns += static_cast<double>(rec.sim_end - rec.power_end);
        a->events += static_cast<double>(r.events_executed);
        a->allocs += static_cast<double>(rec.allocs_sim);
        a->exits += static_cast<double>(r.exits_total);
        a->ticks += ticks;
      }
      scheduled += r.events_scheduled;
      cancelled += r.events_cancelled;
      high_water = std::max(high_water, r.slot_high_water);
      compactions += r.queue_compactions;
      spills += r.callback_spills;
      exits_total += r.exits_total;
      exits_timer += r.exits_timer_related;
      for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) by_cause[c] += r.exits_by_cause[c];
      for (std::size_t c = 0; c < hw::kCycleCategoryCount; ++c) {
        cycles[c] += static_cast<double>(r.cycles.total(static_cast<hw::CycleCategory>(c)).count());
      }
      allocs_outside_sim += rec.allocs_run - rec.allocs_sim;
      if (rec.ledger_cycles != rec.expected_cycles) {
        ++overcharged;
        overcharge_max = std::max(overcharge_max,
                                  static_cast<double>(rec.ledger_cycles - rec.expected_cycles) /
                                      static_cast<double>(rec.expected_cycles));
      }
      if (rec.events) event_ns.merge(rec.events->hist);
    }
    auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double cancel_frac = per(static_cast<double>(cancelled), static_cast<double>(scheduled));

    const OpRate queue = queue_ops(high_water, cancel_frac, opt.seed);
    const OpRate wheel = wheel_ops(opt.seed);
    const OpRate hrt = hrtimer_ops(opt.seed);
    const OpRate arm = deadline_ops(opt.seed);

    const double sim_run = med(&LayerTimes::sim_run);
    out.push_back({"sim.run_ms", sim_run, "ms"});
    out.push_back({"sim.run_ns_per_event", per(all.sim_ns, all.events), "ns"});
    out.push_back({"sim.event_ns_p50", event_ns.percentile(50.0), "ns"});
    out.push_back({"sim.event_ns_p99", event_ns.percentile(99.0), "ns"});
    out.push_back({"sim.allocs_per_event", per(all.allocs, all.events), "count"});
    out.push_back({"sim.events_executed", all.events, "count"});
    out.push_back({"sim.cancel_frac", cancel_frac, "ratio"});
    out.push_back({"sim.slot_high_water", static_cast<double>(high_water), "count"});
    out.push_back({"sim.compactions", static_cast<double>(compactions), "count"});
    out.push_back({"sim.callback_spills", static_cast<double>(spills), "count"});
    out.push_back({"sim.queue_ns_per_op", queue.ns_per_op, "ns"});
    out.push_back({"hv.power_on_ms", med(&LayerTimes::power_on), "ms"});
    out.push_back({"hv.exits_per_event", per(all.exits, all.events), "count"});
    out.push_back({"hv.timer_exit_frac",
                   per(static_cast<double>(exits_timer), static_cast<double>(exits_total)), "ratio"});
    for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
      out.push_back({"hv.exits." + std::string(hw::to_string(static_cast<hw::ExitCause>(c))),
                     static_cast<double>(by_cause[c]), "count"});
    }
    out.push_back({"guest.ticks_per_event", per(all.ticks, all.events), "count"});
    out.push_back({"guest.virtual_ticks", static_cast<double>(virtual_ticks), "count"});
    out.push_back({"guest.msr_writes", static_cast<double>(msr_writes), "count"});
    out.push_back({"guest.wake_us_p50", wake.count() ? wake.percentile(50.0) : 0.0, "sim_us"});
    out.push_back({"guest.wake_us_p99", wake.count() ? wake.percentile(99.0) : 0.0, "sim_us"});
    out.push_back({"guest.timer_wheel_ns_per_op", wheel.ns_per_op, "ns"});
    out.push_back({"guest.hrtimer_ns_per_op", hrt.ns_per_op, "ns"});
    out.push_back({"hw.deadline_arm_ns", arm.ns_per_op, "ns"});
    double cycles_total = 0;
    for (const double c : cycles) cycles_total += c;
    for (std::size_t c = 0; c < hw::kCycleCategoryCount; ++c) {
      out.push_back({"hw.cycles." + std::string(hw::to_string(static_cast<hw::CycleCategory>(c))) + "_frac",
                     per(cycles[c], cycles_total), "ratio"});
    }
    out.push_back({"hw.cycles.overcharged_runs", static_cast<double>(overcharged), "count"});
    out.push_back({"workload.install_ms", med(&LayerTimes::install), "ms"});
    out.push_back({"metrics.collect_ms", med(&LayerTimes::collect), "ms"});
    out.push_back({"core.setup_ms", med(&LayerTimes::core_setup), "ms"});
    out.push_back({"core.teardown_ms", med(&LayerTimes::teardown), "ms"});
    out.push_back({"core.allocs_per_run",
                   per(static_cast<double>(allocs_outside_sim), static_cast<double>(p.res.runs.size())),
                   "count"});
    out.push_back({"core.sweep_overhead_ms", med(&LayerTimes::sweep_overhead), "ms"});
    out.push_back({"core.export_ms", med(&LayerTimes::export_ms), "ms"});
    for (const auto& [mode, m] : by_mode) {
      const std::string sfx = std::string(".").append(guest::to_string(mode));
      out.push_back({"sim.run_ns_per_event" + sfx, per(m.sim_ns, m.events), "ns"});
      out.push_back({"sim.allocs_per_event" + sfx, per(m.allocs, m.events), "count"});
      out.push_back({"hv.exits_per_event" + sfx, per(m.exits, m.events), "count"});
      out.push_back({"guest.ticks_per_event" + sfx, per(m.ticks, m.events), "count"});
    }
    const double plain = median(plain_wall), traced = median(traced_wall);
    out.push_back({"trace.overhead_pct", per(traced - plain, plain) * 100.0, "%"});
    // The spans partition traced thread time (grid wall x threads, plus
    // the export) by construction, so the shares below sum to 100 %.
    const LayerTimes& l = layers.back();
    const double total = l.wall_ms * l.threads + l.export_ms;
    std::printf("self-time shares of %.1f thread-ms (last traced pass): sim %.1f%%, "
                "hv %.2f%%, workload %.2f%%, metrics %.2f%%, core %.2f%% "
                "(setup %.2f, teardown %.2f, sweep %.2f, export %.2f)\n",
                total, 100 * l.sim_run / total, 100 * l.power_on / total,
                100 * l.install / total, 100 * l.collect / total,
                100 * (l.core_setup + l.teardown + l.sweep_overhead + l.export_ms) / total,
                100 * l.core_setup / total, 100 * l.teardown / total,
                100 * l.sweep_overhead / total, 100 * l.export_ms / total);

    std::printf("%s: %zu traced + %zu untraced grid passes\n", w.name, layers.size(),
                plain_wall.size());
    std::printf("cycle ledger: %llu of %zu runs differ from pCPUs x wall, by at most %.2g\n",
                static_cast<unsigned long long>(overcharged), p.res.runs.size(), overcharge_max);
    std::printf("isolated drivers: sim queue %.0f ops/s (live %llu, cancel %.3f), "
                "timer wheel %.0f ops/s, hrtimer %.0f ops/s, deadline timer %.0f ops/s\n",
                queue.ops_per_s, static_cast<unsigned long long>(high_water), cancel_frac,
                wheel.ops_per_s, hrt.ops_per_s, arm.ops_per_s);
  }

  if (!opt.export_path.empty()) {
    std::ofstream f(opt.export_path, std::ios::binary);
    f << last.json;
  }

  for (const Metric& m : out) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const CheckResult& c : checks.results()) {
    std::printf("  check %-28s %s%s%s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.ok ? "" : ": ", c.detail.c_str());
  }

  std::ostringstream js;
  js << "{\"workload\":\"" << w.name << "\",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < out.size(); ++i) {
    js << (i ? "," : "") << "\"" << out[i].name << "\":{\"value\":" << json_number(out[i].value)
       << ",\"unit\":\"" << out[i].unit << "\"}";
  }
  js << "},\"checks\":[";
  for (std::size_t i = 0; i < checks.results().size(); ++i) {
    const CheckResult& c = checks.results()[i];
    js << (i ? "," : "") << "{\"name\":\"" << c.name << "\",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":\"" << json_escape(c.detail) << "\"}";
  }
  js << "],\"stamp\":{\"git_sha\":\"" << json_escape(opt.git_sha) << "\",\"cpu_model\":\""
     << json_escape(cpu_model()) << "\",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"threads\":" << opt.threads << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"compiler\":\"" << json_escape(kCompiler) << "\"}}";
  std::printf("%s\n", js.str().c_str());
  return checks.all_ok() ? 0 : 1;
}
