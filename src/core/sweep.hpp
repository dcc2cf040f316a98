// Deterministic sweep pipeline: plan -> execute -> aggregate.
//
// Every table and figure of the paper is an A/B sweep over tick modes,
// tick frequencies, vCPU counts, overcommit ratios and seed replicas.
// The pipeline has three steps:
//
//   1. planning (core/sweep_plan.hpp): pure expansion of the grid into
//      (cell, run_index, seed) work items;
//   2. execution (SweepRunner::run): the runs fan out over an in-process
//      thread pool (-j N); a SimError or exception inside one run becomes
//      that run's failure record instead of ending the sweep;
//   3. aggregation (aggregate_sweep_runs below): fold the runs into
//      per-cell summaries via Accumulator::merge.
//
// Determinism guarantee: each run's seed is a pure function of
// (root_seed, run_index) — derived with a splitmix64 jump, never from the
// schedule — and aggregation happens in run-index order after all runs
// finish. Results are therefore bit-identical for any `-j` value.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "metrics/run_metrics.hpp"
#include "sim/parallel/parallel_engine.hpp"
#include "sim/stats.hpp"

namespace paratick::core {

/// A named point on the workload axis of a sweep: mutates the base
/// ExperimentSpec (install a different workload, resize the machine, ...).
struct SweepVariant {
  std::string name;
  std::function<void(ExperimentSpec&)> apply;  // null = base spec as-is
};

/// The sweep grid. Empty numeric axes inherit the base spec's value, so a
/// config with only `modes` set is a plain A/B comparison. The full grid is
/// variants x modes x tick_freqs_hz x vcpu_counts x overcommit x repeat.
struct SweepConfig {
  ExperimentSpec base;
  std::vector<SweepVariant> variants;    // default: one unnamed variant
  std::vector<guest::TickMode> modes = {guest::TickMode::kDynticksIdle,
                                        guest::TickMode::kParatick};
  std::vector<double> tick_freqs_hz;     // empty: inherit base
  std::vector<int> vcpu_counts;          // empty: inherit base (machine untouched)
  /// vCPU:pCPU ratios; the machine is resized to ceil(total_vcpus / ratio)
  /// single-socket pCPUs and the host switches to shared scheduling when
  /// ratio > 1. Empty: inherit the base machine.
  std::vector<double> overcommit;
  int repeat = 1;                        // seed replicas per cell
  std::uint64_t root_seed = 1;
  unsigned threads = 0;                  // 0 = hardware_concurrency
  /// Worker threads INSIDE each partitioned run's sim::ParallelEngine
  /// (--engine-threads N) — orthogonal to `threads`, which fans runs out
  /// across the grid. Only scenarios built on the parallel engine read
  /// it; results are bit-identical for any value (that is the parallel
  /// engine's contract, and what the CI smoke job compares). 1 = drive
  /// every partition inline, 0 = hardware_concurrency.
  unsigned engine_threads = 1;
  /// Parallel-engine window-bound derivation (--lookahead-mode). Results
  /// are bit-identical either way; only the window counters in the
  /// parallel profile differ (kTopology runs fewer barriers).
  sim::LookaheadMode lookahead_mode = sim::LookaheadMode::kGlobal;
  /// kTopology horizon cap in global quanta (0 = unbounded).
  std::uint64_t max_horizon_windows = 64;
  bool progress = false;                 // per-run timing lines on stderr

  /// Chaos injection: applied to every run when any rate is nonzero. The
  /// per-run fault plan seed is derived purely from (root_seed, run_index),
  /// so chaos sweeps stay bit-identical at any -j.
  fault::FaultConfig fault;
  /// Run the invariant watchdog inside every run (see SystemSpec).
  bool watchdog = false;
  sim::SimTime watchdog_timer_grace = sim::SimTime::ms(5);
  /// Directory for replay bundles of failed runs; empty = don't write.
  std::string failure_dir;
  /// Fail fast: after this many failed runs, remaining runs are skipped
  /// (recorded as kSkipped). 0 = run everything. Which runs get skipped
  /// depends on scheduling, so fail-fast sweeps are NOT -j-bit-identical.
  std::size_t max_failures = 0;
  /// Per-run wall-clock timeout in seconds; > 0 makes hung runs fail with
  /// kTimeout. Wall-clock dependent, so timed-out runs are not replayable
  /// to the same event.
  double run_timeout_sec = 0.0;
  /// Identity stamped into replay bundles so bench_replay can rebuild the
  /// sweep: the bench name and (for registered chaos scenarios) the
  /// scenario name. See core/scenarios.hpp.
  std::string bench_name;
  std::string scenario;

  /// Record a full event trace of every run (core/record_replay): one
  /// compact record per executed engine event. Traces of failed runs are
  /// written next to their replay bundles as
  /// <failure_dir>/<bench>/run<idx>.trace and referenced from the bundle,
  /// so bench_replay can verify a reproduction event-by-event and bisect
  /// the first divergence. Recording is observational — results and
  /// exports stay byte-identical to an unrecorded sweep.
  bool record_trace = false;
  /// Pre-size for per-run trace buffers (events per run); 0 = a sane
  /// default. Feed it EngineProfile::events_executed from a prior run.
  std::uint64_t trace_reserve_events = 0;
  /// Attach an external engine observer to every run (replay checking).
  /// Single-run use only (execute_run): the thread pool would share it
  /// across concurrent engines. Ignored when record_trace is set.
  sim::EventObserver* observer = nullptr;
};

/// Identity of one grid cell (everything except the replica axis).
struct SweepCellKey {
  std::string variant;
  guest::TickMode mode = guest::TickMode::kDynticksIdle;
  double tick_freq_hz = 0.0;
  int vcpus = 0;
  double overcommit = 0.0;

  [[nodiscard]] std::string label() const;
};

/// Why a run produced no result (crash-isolated failure record).
struct RunFailure {
  enum class Kind : std::uint8_t {
    kCheck,      // PARATICK_CHECK invariant failed (SimError)
    kWatchdog,   // watchdog invariant breach (SimError)
    kTimeout,    // per-run wall-clock budget exceeded (SimError)
    kException,  // any other std::exception
    kSkipped,    // not executed: the --max-failures budget was spent
    kDivergence, // a replayed run stopped matching its recorded trace
  };
  Kind kind = Kind::kException;
  std::string expr;     // failing expression / watchdog check name
  std::string file;
  int line = 0;
  std::string message;
  std::int64_t sim_time_ns = -1;  // -1 = thrown outside engine context
  std::uint64_t events_executed = 0;

  [[nodiscard]] static const char* kind_name(Kind k);
};

/// One simulation run (cell x replica).
struct SweepRun {
  std::size_t cell = 0;  // index into SweepResult::cells
  std::size_t run_index = 0;
  int replica = 0;
  std::uint64_t seed = 0;
  bool ok = false;
  metrics::RunResult result;             // valid only when ok
  std::optional<RunFailure> failure;     // set when !ok
  std::string bundle_path;               // replay bundle, when one was written
  std::string trace_path;                // event trace, when one was written
  double host_seconds = 0.0;  // wall-clock cost of this run
};

/// Replica-aggregated view of one cell. Scalar metrics go through one
/// Accumulator per metric; per-run wakeup-latency accumulators are merged
/// across replicas and VMs with Accumulator::merge.
struct SweepCellSummary {
  SweepCellKey key;
  sim::Accumulator exits_total;
  sim::Accumulator exits_timer;
  sim::Accumulator busy_cycles;
  sim::Accumulator exec_time_ms;  // only runs whose workload completed
  sim::Accumulator wakeup_latency_us;
  // Engine self-profile, deterministic counters only (see EngineProfile):
  // exported to JSON history snapshots so regressions in the DES hot path
  // (a capture spilling to the heap, queue occupancy blow-ups) gate in CI.
  sim::Accumulator events_executed;
  sim::Accumulator cb_spills;
  sim::Accumulator cb_spill_bytes;
  sim::Accumulator slot_high_water;
  sim::Accumulator compactions;
  // Parallel-engine window counters (metrics::RunResult::par_*), all-zero
  // for single-engine scenarios. Deterministic at any engine-thread count
  // for a FIXED lookahead mode, but mode-DEPENDENT — to_json() exports
  // them only for cells that actually ran the partitioned engine, so
  // single-engine sweep snapshots (and their committed bench baselines)
  // are byte-for-byte unchanged.
  sim::Accumulator par_windows;
  sim::Accumulator par_windows_skipped;
  sim::Accumulator par_barriers_elided;
  sim::Accumulator par_horizon_max_ns;
  /// Hypervisor-side steal time summed over a run's VMs, in milliseconds
  /// (runnable-but-not-running plus injected vmentry steal bursts).
  sim::Accumulator steal_ms;
  /// Guest steal-estimator error vs hv ground truth, in milliseconds
  /// (estimate - truth, summed over the run's estimator-enabled VMs).
  /// Empty unless the scenario arms the estimator (GuestConfig::steal).
  sim::Accumulator steal_est_err_ms;
  /// Wake-to-run latency distribution merged over surviving replicas and
  /// VMs — the tail the bench_diff KS gate compares.
  sim::LogHistogram wake_hist_us;
  metrics::RunResult first;  // first surviving replica, for drill-down
  /// Crash isolation: replicas that failed / timed out (subset of failed)
  /// / were skipped by --max-failures. Aggregates cover survivors only.
  std::uint64_t replicas_failed = 0;
  std::uint64_t replicas_timed_out = 0;
  std::uint64_t replicas_skipped = 0;

  [[nodiscard]] bool degraded() const { return replicas_failed > 0; }
};

struct SweepResult {
  std::vector<SweepCellSummary> cells;  // grid order (deterministic)
  std::vector<SweepRun> runs;           // run-index order (deterministic)
  double wall_seconds = 0.0;
  unsigned threads_used = 1;

  /// First cell matching variant + mode (for single-freq/vcpu sweeps).
  [[nodiscard]] const SweepCellSummary* find(const std::string& variant,
                                             guest::TickMode mode) const;

  /// Runs that failed (excluding --max-failures skips), run-index order.
  [[nodiscard]] std::vector<const SweepRun*> failed_runs() const;
  [[nodiscard]] std::size_t ok_run_count() const;
  /// Cells with at least one failed replica.
  [[nodiscard]] std::size_t degraded_cell_count() const;

  [[nodiscard]] std::size_t index_of(const SweepCellSummary& cell) const {
    return static_cast<std::size_t>(&cell - cells.data());
  }

  /// Replica statistics for a metric SweepCellSummary does not
  /// pre-aggregate: fold one scalar per run of `cell` (run-index order,
  /// so the result is deterministic for any thread count).
  template <typename F>
  [[nodiscard]] sim::Accumulator metric_over_runs(std::size_t cell, F&& f) const {
    sim::Accumulator acc;
    for (const auto& r : runs) {
      if (r.cell == cell) acc.add(static_cast<double>(f(r.result)));
    }
    return acc;
  }

  /// Merge a per-run mergeable (Accumulator, LogHistogram) across the
  /// replicas of `cell`, in run-index order.
  template <typename F>
  [[nodiscard]] auto merged_over_runs(std::size_t cell, F&& f) const {
    std::decay_t<decltype(f(runs.front().result))> out{};
    for (const auto& r : runs) {
      if (r.cell == cell) out.merge(f(r.result));
    }
    return out;
  }

  /// Paper-style comparison between two cells' replica means.
  [[nodiscard]] static metrics::Comparison compare_cells(
      const SweepCellSummary& baseline, const SweepCellSummary& treatment);
  [[nodiscard]] metrics::Comparison compare(const std::string& variant,
                                            guest::TickMode baseline,
                                            guest::TickMode treatment) const;

  /// One row per cell: key columns + mean/stddev of each metric. Both
  /// exports are pure functions of the cells, so every -j value produces
  /// byte-identical files.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
  void write_csv(const std::string& path) const;
  void write_json(const std::string& path) const;
};

/// Fold res.runs into res.cells, strictly in run-index order. res.cells
/// must already carry their keys with all aggregates empty.
void aggregate_sweep_runs(SweepResult& res);

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig cfg);

  [[nodiscard]] std::size_t cell_count() const;
  [[nodiscard]] std::size_t total_runs() const;

  /// Plan the grid, execute every run on cfg.threads pool threads in
  /// run-index order, and aggregate. Reusable.
  [[nodiscard]] SweepResult run() const;

  /// Execute exactly one run of the grid by index — the replay primitive:
  /// seeds, fault plan and cell spec are all pure in (config, run_index),
  /// so this reproduces what the full sweep did for that index.
  [[nodiscard]] SweepRun execute_run(std::size_t run_index) const;

 private:
  SweepConfig cfg_;
};

/// Shared CLI for the sweep-driven bench/example binaries:
///   -j N | -jN        worker threads (default: hardware_concurrency)
///   --engine-threads N  threads inside each run's parallel engine
///                     (partitioned scenarios only; orthogonal to -j,
///                     results bit-identical for any N; default 1)
///   --lookahead-mode M  parallel-engine window bounds: "global" (default,
///                     one conservative window = min link latency) or
///                     "topology" (per-partition safe horizons from the
///                     declared links; identical results, fewer barriers)
///   --max-horizon-windows N  cap a topology horizon at N global quanta
///                     (default 64, 0 = unbounded)
///   --repeat N        seed replicas per cell (default 1)
///   --seed S          root seed
///   --csv             machine-readable stdout (per-bench table)
///   --sweep-csv P     write the per-cell summary grid as CSV to P
///   --sweep-json P    same as JSON
///   --history-dir D   append the JSON snapshot as D/<bench>/<tag>.json
///                     (tag defaults to the current git commit; see
///                     core/history.hpp and the bench_diff gate)
///   --history-tag T   override the snapshot tag
///   --profile         print the engine hot-path profile (events/sec,
///                     callback spills, slot high-water, compactions)
///   --quiet           suppress per-run progress lines
///   --chaos           enable the default chaos fault mix + watchdog
///   --watchdog        enable only the invariant watchdog
///   --failure-dir P   write replay bundles for failed runs under P
///   --record-trace    record a full event trace per run; failed runs'
///                     traces land next to their replay bundles (see
///                     core/record_replay and bench_replay --bisect)
///   --max-failures N  fail fast after N failed runs
///   --run-timeout S   per-run wall-clock timeout in seconds
///   --fault-<knob> X  override one fault rate (see chaos docs), e.g.
///                     --fault-timer-drop 0.02 --fault-steal 0.05
/// Unrecognized arguments are collected as positionals; a driver that
/// reads none calls expect_positionals(0) so a mistyped or removed flag
/// fails loudly instead of being ignored.
struct SweepCli {
  unsigned threads = 0;
  unsigned engine_threads = 1;
  sim::LookaheadMode lookahead_mode = sim::LookaheadMode::kGlobal;
  std::uint64_t max_horizon_windows = 64;
  int repeat = 1;
  std::optional<std::uint64_t> root_seed;
  bool csv = false;
  bool progress = true;
  std::string sweep_csv;
  std::string sweep_json;
  std::string history_dir;
  std::string history_tag;
  bool profile = false;
  bool chaos = false;
  bool watchdog = false;
  std::string failure_dir;
  bool record_trace = false;
  std::size_t max_failures = 0;
  double run_timeout_sec = 0.0;
  /// (--fault-<knob>, value) pairs in CLI order; applied over --chaos
  /// defaults so individual rates can be overridden.
  std::vector<std::pair<std::string, double>> fault_overrides;
  std::vector<std::string> positional;

  [[nodiscard]] static SweepCli parse(int argc, char** argv);

  /// Exit 2, naming the argument, when more than `max` positionals are
  /// left or any of them looks like a flag ("-..."): nothing parsed it.
  void expect_positionals(std::size_t max) const;

  /// Copy the flags onto a config (root_seed only if given on the CLI).
  void apply(SweepConfig& cfg) const;

  /// The one-call driver entry point: plan, execute and aggregate cfg.
  /// The returned result feeds the bench's table rendering and exports.
  [[nodiscard]] SweepResult run_sweep(SweepConfig cfg) const;

  /// Honor --sweep-csv/--sweep-json/--history-dir if present. The bench
  /// name becomes the history subdirectory; benches that never pass one
  /// keep the flag inert (a warning is printed if it was requested).
  void export_results(const SweepResult& result,
                      const std::string& bench_name = {}) const;
};

}  // namespace paratick::core
